package campaign

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/fi"
	"repro/internal/obs"
	"repro/internal/obs/alert"
	"repro/internal/obs/ts"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Monitor feeds one campaign's live state into an obs.Registry and renders
// every human- and machine-facing view — the periodic CLI progress line,
// the /metrics exposition and the /campaign JSON status — from the same
// registry series, so the three can never disagree.
//
// Series are labeled id=<plan.ID>:
//
//	epvf_campaign_runs_total{id,outcome}       runs by outcome (replay + executed)
//	epvf_campaign_runs_executed_total{id}      runs performed this invocation
//	epvf_campaign_runs_replayed_total{id}      runs recovered from the log
//	epvf_campaign_run_seconds{id}              executed-run latency histogram
//	epvf_injection_latency_seconds{id,stage,outcome}  per-injection latency by outcome (stage="campaign")
//	epvf_campaign_checkpoint_sync_seconds{id}  log checkpoint fsync latency
//	epvf_campaign_shards_complete{id}          completed shards (gauge)
//	epvf_campaign_stopped{id}                  1 after adaptive early stop
//	epvf_campaign_runs_saved{id}               runs avoided by early stop
type Monitor struct {
	reg *obs.Registry
	now func() time.Time

	mu        sync.Mutex
	w         io.Writer
	plan      *Plan
	start     time.Time
	lastPrint time.Time
	reason    string
	// snapSrc, when non-nil, supplies the runner's live snapshot stats
	// for the status views; nil (snapshots off) omits the section.
	snapSrc func() *snapshot.View
	// publish, when non-nil, receives throttled "campaign" progress
	// events for the live SSE stream; it must never block (the ts.Hub
	// publish path is non-blocking by construction).
	publish     func(event string, v any)
	lastPublish time.Time
	// tsSrc / alertSrc, when non-nil, attach the live time-series and
	// alert summaries to status views (the `ts` / `alerts` sections of
	// /campaign and `campaign status -json`).
	tsSrc    func() *ts.Summary
	alertSrc func() *alert.Summary
}

// NewMonitor returns a monitor writing into reg; nil reg allocates a
// private registry, so progress rendering works without global metrics.
func NewMonitor(reg *obs.Registry) *Monitor {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Monitor{reg: reg, now: time.Now}
}

// SetClock installs an alternative time source. It must be called before
// the campaign starts; tests share this seam with the obs tracer.
func (m *Monitor) SetClock(now func() time.Time) {
	if now != nil {
		m.now = now
	}
}

// Registry returns the registry the monitor writes into (for serving
// /metrics alongside /campaign).
func (m *Monitor) Registry() *obs.Registry { return m.reg }

// setSnapshotSource binds the live snapshot-stats source for status
// rendering; the engine calls it with the runner's SnapshotView.
func (m *Monitor) setSnapshotSource(src func() *snapshot.View) {
	m.mu.Lock()
	m.snapSrc = src
	m.mu.Unlock()
}

// SetPublisher installs the live progress publisher: fn receives one
// ("campaign", *StatusJSON) event at campaign start and end, and at
// most one per second in between. CLIs wire the SSE hub in here.
func (m *Monitor) SetPublisher(fn func(event string, v any)) {
	m.mu.Lock()
	m.publish = fn
	m.mu.Unlock()
}

// SetTelemetry binds the live time-series and alert summary sources, so
// status views (the /campaign endpoint, `campaign status -json`) carry
// `ts` and `alerts` sections. Either may be nil.
func (m *Monitor) SetTelemetry(tsSrc func() *ts.Summary, alertSrc func() *alert.Summary) {
	m.mu.Lock()
	m.tsSrc = tsSrc
	m.alertSrc = alertSrc
	m.mu.Unlock()
}

// begin binds the monitor to an invocation: it zeroes this plan's series
// (a rerun in the same process must not double-count) and seeds the
// outcome tallies with the runs replayed from the log.
func (m *Monitor) begin(plan *Plan, w io.Writer, replayed map[fi.Outcome]int) {
	m.mu.Lock()
	m.plan = plan
	m.w = w
	m.start = m.now()
	m.lastPrint = time.Time{}
	m.reason = ""
	m.mu.Unlock()

	m.reg.ResetLabeled("id", plan.ID)
	var n int64
	for o, c := range replayed {
		m.reg.Counter("epvf_campaign_runs_total", "id", plan.ID, "outcome", o.String()).Add(int64(c))
		n += int64(c)
	}
	m.reg.Counter("epvf_campaign_runs_replayed_total", "id", plan.ID).Add(n)
	m.reg.Counter("epvf_campaign_runs_executed_total", "id", plan.ID).Add(0)
	// Unlabeled on purpose: the stall alert gates on "any campaign in
	// flight in this process", not a particular plan.
	m.reg.Gauge("epvf_campaign_active").Set(1)
	m.publishStatus(false)
}

// record tallies one executed run and its latency (overall and
// per-outcome), feeds the flight recorder's shard exemplars, then
// refreshes the progress line if due.
func (m *Monitor) record(shard int, index int64, rec fi.Record, t0 time.Time, dur time.Duration) {
	id := m.planID()
	outcome := rec.Outcome.String()
	m.reg.Counter("epvf_campaign_runs_total", "id", id, "outcome", outcome).Inc()
	m.reg.Counter("epvf_campaign_runs_executed_total", "id", id).Inc()
	m.reg.Histogram("epvf_campaign_run_seconds", nil, "id", id).Observe(dur.Seconds())
	m.reg.Histogram("epvf_injection_latency_seconds", obs.LatencyBuckets,
		"id", id, "stage", "campaign", "outcome", outcome).Observe(dur.Seconds())
	obs.DefaultFlight().ObserveInjection(NewInjection(shard, index, rec, t0, dur))
	m.maybePrint()
	m.publishStatus(true)
}

// publishEvery throttles live progress events onto the SSE stream.
const publishEvery = time.Second

// publishStatus emits a "campaign" progress event, throttled to one per
// publishEvery when throttle is set. The publisher runs outside the
// monitor lock.
func (m *Monitor) publishStatus(throttle bool) {
	m.mu.Lock()
	if m.publish == nil || m.plan == nil {
		m.mu.Unlock()
		return
	}
	now := m.now()
	if throttle && now.Sub(m.lastPublish) < publishEvery {
		m.mu.Unlock()
		return
	}
	m.lastPublish = now
	st := m.statusLocked(now)
	pub := m.publish
	m.mu.Unlock()
	pub("campaign", st)
}

// shardComplete bumps the completed-shard gauge.
func (m *Monitor) shardComplete() {
	m.reg.Gauge("epvf_campaign_shards_complete", "id", m.planID()).Add(1)
}

// stop records an adaptive early stop.
func (m *Monitor) stop(saved int64, reason string) {
	id := m.planID()
	m.reg.Gauge("epvf_campaign_stopped", "id", id).Set(1)
	m.reg.Gauge("epvf_campaign_runs_saved", "id", id).Set(float64(saved))
	m.mu.Lock()
	m.reason = reason
	m.mu.Unlock()
}

// timedCheckpoint runs a log checkpoint under the fsync-latency histogram.
func (m *Monitor) timedCheckpoint(w *logWriter) error {
	t0 := m.now()
	err := w.checkpoint()
	m.reg.Histogram("epvf_campaign_checkpoint_sync_seconds", nil, "id", m.planID()).
		Observe(m.now().Sub(t0).Seconds())
	return err
}

func (m *Monitor) planID() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.plan == nil {
		return ""
	}
	return m.plan.ID
}

// printEvery throttles the periodic progress lines.
const printEvery = time.Second

// maybePrint emits a throttled progress line rendered from the registry.
func (m *Monitor) maybePrint() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.w == nil || m.plan == nil {
		return
	}
	now := m.now()
	if now.Sub(m.lastPrint) < printEvery {
		return
	}
	m.lastPrint = now
	fmt.Fprintln(m.w, m.statusLocked(now).progressLine())
}

// Status renders the live campaign state from a registry snapshot — the
// same schema `campaign status -json` derives from the log. It errors
// until a campaign has been bound, matching obs.Server.HandleJSON.
func (m *Monitor) Status() (*StatusJSON, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.plan == nil {
		return nil, fmt.Errorf("no campaign running")
	}
	return m.statusLocked(m.now()), nil
}

// statusLocked snapshots the registry into the shared status schema.
// m.mu must be held.
func (m *Monitor) statusLocked(now time.Time) *StatusJSON {
	snap := m.reg.Snapshot()
	id := m.plan.ID
	s := &StatusJSON{
		ID:             id,
		Benchmark:      m.plan.Benchmark,
		PlannedRuns:    m.plan.Runs,
		ShardSize:      m.plan.ShardSize,
		NumShards:      m.plan.NumShards(),
		ShardsComplete: int(snap.Gauge("epvf_campaign_shards_complete", "id", id)),
		Replayed:       snap.Counter("epvf_campaign_runs_replayed_total", "id", id),
		Executed:       snap.Counter("epvf_campaign_runs_executed_total", "id", id),
		ETASeconds:     -1,
		Stopped:        snap.Gauge("epvf_campaign_stopped", "id", id) != 0,
		Saved:          int64(snap.Gauge("epvf_campaign_runs_saved", "id", id)),
		Reason:         m.reason,
	}
	s.Done = s.Replayed + s.Executed
	n := int(s.Done)
	for _, o := range fi.FailureOutcomes {
		c := snap.Counter("epvf_campaign_runs_total", "id", id, "outcome", o.String())
		s.Outcomes = append(s.Outcomes, outcomeJSON(o, c, n))
	}
	if m.snapSrc != nil {
		s.Snapshot = m.snapSrc()
	}
	if m.tsSrc != nil {
		s.TS = m.tsSrc()
	}
	if m.alertSrc != nil {
		s.Alerts = m.alertSrc()
	}
	// elapsed can be zero (coarse clocks, fake clocks): never divide by it.
	s.ElapsedSeconds = now.Sub(m.start).Seconds()
	if s.ElapsedSeconds > 0 {
		s.RunsPerSec = float64(s.Executed) / s.ElapsedSeconds
	}
	if s.RunsPerSec > 0 && s.PlannedRuns > s.Done {
		s.ETASeconds = float64(s.PlannedRuns-s.Done) / s.RunsPerSec
	}
	return s
}

// finish syncs the outcome series to the invocation's effective result and
// prints the summary. An adaptively stopped campaign's effective records
// are the converged prefix only, so the counters are nudged by the delta
// to match res.Counts exactly — the acceptance contract between the final
// CLI table, /metrics and /campaign.
func (m *Monitor) finish(res *Result) {
	id := m.planID()
	snap := m.reg.Snapshot()
	for _, o := range fi.FailureOutcomes {
		have := snap.Counter("epvf_campaign_runs_total", "id", id, "outcome", o.String())
		if d := int64(res.Counts[o]) - have; d != 0 {
			m.reg.Counter("epvf_campaign_runs_total", "id", id, "outcome", o.String()).Add(d)
		}
	}
	if res.Stopped {
		m.stop(res.Saved, res.Reason)
	}
	m.reg.Gauge("epvf_campaign_active").Set(0)
	m.publishStatus(false)

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.w == nil {
		return
	}
	elapsed := m.now().Sub(m.start).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(res.Executed) / elapsed
	}
	fmt.Fprintf(m.w, "campaign %s [%s]: %d executed (%.0f runs/s), %d replayed",
		res.Plan.ID, res.Plan.Benchmark, res.Executed, rate, res.Replayed)
	if res.Stopped {
		fmt.Fprintf(m.w, ", stopped early (%d runs saved: %s)", res.Saved, res.Reason)
	}
	fmt.Fprintln(m.w)
	fmt.Fprintln(m.w, res.Render())
}

// StatusJSON is the shared campaign-status schema: the /campaign HTTP view
// and `campaign status -json` both emit it.
type StatusJSON struct {
	ID             string        `json:"id"`
	Benchmark      string        `json:"benchmark"`
	PlannedRuns    int64         `json:"planned_runs"`
	ShardSize      int64         `json:"shard_size"`
	NumShards      int           `json:"num_shards"`
	ShardsComplete int           `json:"shards_complete"`
	Done           int64         `json:"done"`
	Replayed       int64         `json:"replayed"`
	Executed       int64         `json:"executed"`
	Outcomes       []OutcomeJSON `json:"outcomes"`
	RunsPerSec     float64       `json:"runs_per_sec"`
	// ETASeconds is -1 when no rate is measurable yet.
	ETASeconds     float64 `json:"eta_seconds"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Stopped        bool    `json:"stopped"`
	Saved          int64   `json:"saved"`
	Reason         string  `json:"reason,omitempty"`
	// Snapshot reports copy-on-write snapshot activity; absent when
	// snapshots are disabled (or ruled out by layout jitter).
	Snapshot *snapshot.View `json:"snapshot,omitempty"`
	// TS and Alerts carry the live telemetry summaries when the
	// dashboard layer is mounted; absent in cold-log status.
	TS     *ts.Summary    `json:"ts,omitempty"`
	Alerts *alert.Summary `json:"alerts,omitempty"`
}

// OutcomeJSON is one outcome tally with its Wilson 95% CI half-width.
type OutcomeJSON struct {
	Outcome     string  `json:"outcome"`
	Count       int64   `json:"count"`
	Rate        float64 `json:"rate"`
	CIHalfWidth float64 `json:"ci_half_width"`
}

// outcomeJSON builds one tally row, guarding the n == 0 case: before any
// run completes there is no rate to estimate, so both the rate and the CI
// half-width render as 0 rather than the vacuous (0, 1) Wilson interval.
// Both status paths (live Monitor, cold log) share it so they can never
// disagree on the degenerate case.
func outcomeJSON(o fi.Outcome, count int64, n int) OutcomeJSON {
	out := OutcomeJSON{Outcome: o.String(), Count: count}
	if n > 0 {
		p := stats.Proportion{Successes: int(count), N: n}
		out.Rate = p.Rate()
		out.CIHalfWidth = p.HalfWidth()
	}
	return out
}

// progressLine renders the one-line periodic progress report.
func (s *StatusJSON) progressLine() string {
	pct := 0.0
	if s.PlannedRuns > 0 {
		pct = 100 * float64(s.Done) / float64(s.PlannedRuns)
	}
	eta := "?"
	if s.ETASeconds >= 0 {
		eta = fmt.Sprintf("%.0fs", s.ETASeconds)
	}
	tally := ""
	for _, o := range s.Outcomes {
		if o.Count == 0 {
			continue
		}
		if tally != "" {
			tally += " "
		}
		tally += fmt.Sprintf("%s=%.0f%%", o.Outcome, 100*o.Rate)
	}
	return fmt.Sprintf("campaign %s [%s] %d/%d (%.1f%%)  %.0f runs/s  ETA %s  %s",
		s.ID, s.Benchmark, s.Done, s.PlannedRuns, pct, s.RunsPerSec, eta, tally)
}
