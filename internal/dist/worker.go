package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/attr"
	"repro/internal/campaign"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/snapshot"
)

// WorkerConfig describes one worker process.
type WorkerConfig struct {
	// Coordinator is the base URL, e.g. "http://10.0.0.1:8766".
	Coordinator string
	// Name identifies the worker in leases and fleet status; empty
	// derives one from the hostname and PID.
	Name string
	// Module and Golden are the worker's own copy of the workload; the
	// plan computed from them must hash identically to the coordinator's
	// (the capability handshake), so a stale worker can never contribute.
	Module *ir.Module
	Golden *interp.Result
	// Workers bounds intra-shard parallelism; <= 0 means 1.
	Workers int
	// Registry receives worker metrics (labeled worker=<name>); nil
	// disables them.
	Registry *obs.Registry
	// Client overrides the HTTP client (tests); nil uses a default with
	// a 30s timeout.
	Client *http.Client
	// RetryBase/RetryMax/Retries shape the transient-error backoff:
	// exponential from RetryBase, capped at RetryMax, giving up after
	// Retries attempts. Zeroes mean 100ms / 2s / 8.
	RetryBase time.Duration
	RetryMax  time.Duration
	Retries   int
	// Progress, when non-nil, receives per-shard progress lines.
	Progress io.Writer
	// Classifier, when non-nil, makes the worker compute each shard's
	// attribution-ledger snapshot locally and send its content hash with
	// the delivery (the lhash query parameter) — a cross-check that the
	// worker and coordinator agree on the model's per-bit predictions,
	// not just the raw records.
	Classifier *attr.Classifier
	// DisableSnapshots forces shard runs to execute from scratch instead
	// of restoring copy-on-write golden-path snapshots. Results are
	// bit-identical either way (the coordinator's shard hashes agree
	// regardless), so this is purely a cost knob.
	DisableSnapshots bool
	// SnapshotStride overrides the automatic snapshot spacing; zero
	// keeps ~sqrt(trace length).
	SnapshotStride int64
	// Tracer, when non-nil, correlates this worker into the campaign's
	// distributed trace: each leased shard runs under a span with the
	// deterministic (plan, shard) identity, outgoing coordinator requests
	// carry it in the Traceparent header, and the completed subtree
	// (shard span + notable-injection exemplars) ships to the coordinator
	// after a first-delivery merge. Nil disables tracing entirely.
	Tracer *obs.Tracer
}

// Worker leases shards from a coordinator and executes them. Drain
// semantics: cancelling the Run context stops the worker from leasing
// further shards, but the in-flight shard finishes and its results are
// delivered (on a detached context) before Run returns — ctrl-C wastes
// no completed work.
type Worker struct {
	cfg    WorkerConfig
	plan   *campaign.Plan
	runner *fi.Runner
	ttl    time.Duration
	// traceCtx is the span context outgoing requests propagate (the
	// active shard span while one executes). It is written only by the
	// sequential lease loop, before the heartbeat goroutine starts and
	// after it drains, so no lock is needed.
	traceCtx obs.SpanContext
}

// NewWorker validates the configuration and applies defaults.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("dist: worker needs a coordinator URL")
	}
	if cfg.Module == nil || cfg.Golden == nil {
		return nil, fmt.Errorf("dist: worker needs a module and its golden run")
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 100 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Second
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 8
	}
	return &Worker{cfg: cfg}, nil
}

// permanentError is a non-retryable protocol rejection (4xx): plan
// mismatch, divergent content, expired lease.
type permanentError struct {
	code int
	msg  string
}

func (e *permanentError) Error() string {
	return fmt.Sprintf("dist: coordinator rejected request (%d): %s", e.code, e.msg)
}

// Run executes the worker loop: handshake, then lease → execute →
// deliver until the coordinator reports the campaign done or ctx is
// cancelled (graceful drain). A nil return means a clean exit.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.handshake(ctx); err != nil {
		return err
	}
	for {
		if ctx.Err() != nil {
			w.progress("worker %s: draining, context cancelled", w.cfg.Name)
			return nil
		}
		var lease LeaseResponse
		err := w.postJSON(ctx, PathLease, LeaseRequest{Worker: w.cfg.Name, PlanID: w.plan.ID}, &lease)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			var perm *permanentError
			if errors.As(err, &perm) {
				return err
			}
			// The coordinator vanished after our handshake succeeded.
			// `campaign serve` exits the moment the final shard merges, so
			// for a polling worker this is the normal end-of-fleet signal;
			// after a genuine coordinator crash there is equally nothing
			// left to do — a restarted coordinator resumes from its durable
			// log with a fresh fleet.
			w.progress("worker %s: coordinator unreachable (%v); exiting", w.cfg.Name, err)
			return nil
		}
		switch {
		case lease.Done:
			w.progress("worker %s: campaign complete", w.cfg.Name)
			return nil
		case lease.Lease == "":
			// All remaining shards are leased elsewhere; poll again.
			wait := time.Duration(lease.WaitMillis) * time.Millisecond
			if wait <= 0 {
				wait = defaultPollWait
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		default:
			done, err := w.executeShard(ctx, lease)
			if err != nil {
				return err
			}
			if done {
				// This delivery completed the campaign; the coordinator may
				// already be shutting down, so don't ask it for more work.
				w.progress("worker %s: campaign complete", w.cfg.Name)
				return nil
			}
			if ctx.Err() != nil {
				w.progress("worker %s: drained after shard %d", w.cfg.Name, lease.Shard)
				return nil
			}
		}
	}
}

// handshake fetches the coordinator's plan, recomputes it locally from
// this worker's module and golden run, and registers only when the
// content hashes agree — module, trace or parameter skew fails here, not
// as silent wrong results.
func (w *Worker) handshake(ctx context.Context) error {
	var remote campaign.Plan
	if err := w.get(ctx, PathPlan, &remote); err != nil {
		return fmt.Errorf("dist: fetching plan: %w", err)
	}
	local, err := campaign.NewPlan(w.cfg.Module, w.cfg.Golden, campaign.PlanConfig{
		Benchmark: remote.Benchmark,
		Runs:      int(remote.Runs),
		ShardSize: int(remote.ShardSize),
		FI:        remote.FIConfig(),
	})
	if err != nil {
		return fmt.Errorf("dist: recomputing plan: %w", err)
	}
	if err := local.Compatible(&remote); err != nil {
		return fmt.Errorf("dist: capability handshake failed (stale module or binary?): %w", err)
	}
	w.plan = local
	w.runner, err = fi.NewRunner(w.cfg.Module, w.cfg.Golden, local.FIConfig())
	if err != nil {
		return err
	}
	if !w.cfg.DisableSnapshots {
		// The chain is shared across every shard this worker leases, so
		// later shards replay even less of the golden prefix.
		if _, err := w.runner.EnableSnapshots(snapshot.Config{Stride: w.cfg.SnapshotStride}); err != nil {
			return err
		}
	}
	var reg RegisterResponse
	if err := w.postJSON(ctx, PathRegister, RegisterRequest{Worker: w.cfg.Name, PlanID: local.ID}, &reg); err != nil {
		return fmt.Errorf("dist: registering: %w", err)
	}
	w.ttl = time.Duration(reg.LeaseTTLMillis) * time.Millisecond
	w.progress("worker %s: registered for plan %s (%d shards, lease TTL %s)",
		w.cfg.Name, local.ID, local.NumShards(), w.ttl)
	return nil
}

// executeShard runs one leased shard, heartbeating while it executes,
// and delivers the results. Delivery uses a detached context so a drain
// signal arriving mid-shard cannot tear the upload. The returned bool is
// the coordinator's "this completed the campaign" flag.
func (w *Worker) executeShard(ctx context.Context, lease LeaseResponse) (bool, error) {
	// The shard span carries the deterministic (plan, shard) identity, so
	// a requeued shard re-executed here reproduces the identical span ID a
	// previous worker already shipped — the coordinator dedups it like a
	// redelivered record. Outgoing requests (heartbeats, the delivery)
	// propagate it via the Traceparent header while it is open.
	var span *obs.Span
	var exemplars *obs.InjectionSet
	if w.cfg.Tracer != nil {
		root := campaign.TraceContext(w.plan.ID)
		sctx := obs.SpanContext{TraceID: root.TraceID, SpanID: campaign.ShardSpanID(w.plan.ID, lease.Shard)}
		span = w.cfg.Tracer.StartExact(fmt.Sprintf("shard %d", lease.Shard), sctx, root.SpanID)
		w.traceCtx = sctx
		exemplars = obs.NewInjectionSet(0)
		// The observer runs concurrently from RunRange worker goroutines;
		// InjectionSet is not self-locking, so serialize here.
		var obsMu sync.Mutex
		w.runner.SetSpanObserver(func(index int64, rec fi.Record, start time.Time, wall time.Duration) {
			inj := campaign.NewInjection(lease.Shard, index, rec, start, wall)
			obsMu.Lock()
			exemplars.Observe(inj)
			obsMu.Unlock()
			obs.DefaultFlight().ObserveInjection(inj)
			if w.cfg.Registry != nil {
				w.cfg.Registry.Histogram("epvf_injection_latency_seconds", obs.LatencyBuckets,
					"id", w.plan.ID, "stage", "dist", "outcome", rec.Outcome.String()).Observe(wall.Seconds())
			}
		})
		defer func() {
			w.runner.SetSpanObserver(nil)
			w.traceCtx = obs.SpanContext{}
		}()
	}

	stop := make(chan struct{})
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		w.heartbeatLoop(ctx, lease.Lease, stop)
	}()

	t0 := time.Now()
	records := w.runner.RunRange(lease.Lo, lease.Hi, w.cfg.Workers)
	close(stop)
	<-beatDone

	recs := make([]campaign.RunRec, len(records))
	for i, rec := range records {
		recs[i] = campaign.NewRunRec(lease.Lo+int64(i), rec)
	}
	hash := campaign.ShardHash(w.plan.ID, lease.Shard, recs)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return false, fmt.Errorf("dist: encoding results: %w", err)
		}
	}
	url := fmt.Sprintf("%s?plan=%s&shard=%d&worker=%s&hash=%s",
		PathResults, w.plan.ID, lease.Shard, w.cfg.Name, hash)
	if w.cfg.Classifier != nil {
		url += "&lhash=" + attr.Collect(w.cfg.Classifier, records).Hash()
	}
	// Detached context: a drain must still deliver the finished shard.
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Minute)
	defer cancel()
	if span != nil {
		// The subtree ships before the results so the coordinator holds
		// every delivered shard's spans by the moment the campaign
		// completes (it may shut down right after). A requeued shard
		// re-ships identical deterministic span IDs and the coordinator
		// drops them as duplicates; a failed shipment is noted and
		// dropped — spans are observability, never correctness.
		rec := span.EndRecord()
		subtree := append([]obs.SpanRecord{rec},
			campaign.InjectionSpans(w.plan, lease.Shard, rec.Proc, exemplars.Notable())...)
		if err := w.shipSpans(dctx, lease.Shard, subtree); err != nil {
			w.progress("worker %s: shard %d span shipment dropped: %v", w.cfg.Name, lease.Shard, err)
		}
	}
	var resp ResultResponse
	if err := w.do(dctx, http.MethodPost, url, "application/jsonl", buf.Bytes(), &resp); err != nil {
		return false, fmt.Errorf("dist: delivering shard %d: %w", lease.Shard, err)
	}
	if w.cfg.Registry != nil {
		w.cfg.Registry.Counter("epvf_dist_worker_shards_total", "worker", w.cfg.Name).Inc()
		w.cfg.Registry.Counter("epvf_dist_worker_runs_total", "worker", w.cfg.Name).Add(int64(len(recs)))
		if resp.Duplicate {
			w.cfg.Registry.Counter("epvf_dist_worker_duplicate_total", "worker", w.cfg.Name).Inc()
		}
	}
	verb := "delivered"
	if resp.Duplicate {
		verb = "deduped"
	}
	w.progress("worker %s: shard %d (%d runs) %s in %.2fs",
		w.cfg.Name, lease.Shard, len(recs), verb, time.Since(t0).Seconds())
	return resp.Done, nil
}

// shipSpans posts one shard's span subtree to the coordinator.
func (w *Worker) shipSpans(ctx context.Context, shard int, spans []obs.SpanRecord) error {
	body, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	url := fmt.Sprintf("%s?plan=%s&shard=%d&worker=%s", PathSpans, w.plan.ID, shard, w.cfg.Name)
	var resp SpansResponse
	return w.do(ctx, http.MethodPost, url, "application/json", body, &resp)
}

// heartbeatLoop extends the lease at TTL/3 until stop closes. A 410
// (lease requeued after a stall or partition) ends the loop: the shard
// will be delivered anyway and deduped if someone else finished it
// first.
func (w *Worker) heartbeatLoop(ctx context.Context, leaseID string, stop <-chan struct{}) {
	interval := w.ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			var ok map[string]bool
			err := w.postJSON(ctx, PathHeartbeat, HeartbeatRequest{Worker: w.cfg.Name, Lease: leaseID}, &ok)
			var perm *permanentError
			if errors.As(err, &perm) {
				w.progress("worker %s: lease %s gone (%v); finishing shard anyway", w.cfg.Name, leaseID, err)
				return
			}
		}
	}
}

func (w *Worker) progress(format string, args ...any) {
	if w.cfg.Progress != nil {
		fmt.Fprintf(w.cfg.Progress, format+"\n", args...)
	}
}

// get fetches path with retry and decodes the JSON response.
func (w *Worker) get(ctx context.Context, path string, out any) error {
	return w.do(ctx, http.MethodGet, path, "", nil, out)
}

// postJSON posts a JSON body with retry and decodes the response.
func (w *Worker) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return w.do(ctx, http.MethodPost, path, "application/json", body, out)
}

// do issues one request with exponential-backoff retry on transient
// failures (connection errors and 5xx). 4xx responses are permanent:
// they encode protocol rejections (plan mismatch, divergence, lease
// gone) that retrying cannot fix.
func (w *Worker) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	backoff := w.cfg.RetryBase
	var lastErr error
	for attempt := 0; attempt < w.cfg.Retries; attempt++ {
		if attempt > 0 {
			if w.cfg.Registry != nil {
				w.cfg.Registry.Counter("epvf_dist_worker_retries_total", "worker", w.cfg.Name).Inc()
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return fmt.Errorf("%w (last transport error: %v)", ctx.Err(), lastErr)
			}
			backoff *= 2
			if backoff > w.cfg.RetryMax {
				backoff = w.cfg.RetryMax
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, w.cfg.Coordinator+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		// Propagate the active shard span so coordinator-side spans (the
		// merge) parent under it — the cross-process edge of the trace.
		if w.traceCtx.Valid() {
			obs.InjectTraceHeader(req.Header, w.traceCtx)
		}
		resp, err := w.cfg.Client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusOK {
			err := json.NewDecoder(resp.Body).Decode(out)
			resp.Body.Close()
			if err != nil {
				lastErr = err
				continue
			}
			return nil
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			lastErr = fmt.Errorf("coordinator returned %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
			continue
		}
		return &permanentError{code: resp.StatusCode, msg: string(bytes.TrimSpace(msg))}
	}
	return fmt.Errorf("dist: giving up after %d attempts: %w", w.cfg.Retries, lastErr)
}
