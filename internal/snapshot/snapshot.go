// Package snapshot maintains chains of copy-on-write execution snapshots
// along a program's golden path, so fault-injection runs can restore the
// nearest snapshot at-or-below their injection event and execute only the
// delta instead of replaying the whole prefix (the FastFlip observation
// applied to our execution layer).
//
// A Chain owns one stepwise golden execution on the bytecode VM (vm.Exec)
// and captures its state every stride events, lazily: snapshots
// materialize the first time a caller asks for an event beyond the
// captured frontier, and the chain never runs further than the furthest
// request. Capture cost is
// O(dirty pages) thanks to mem's page-level COW fork; restore cost is an
// O(frames + page pointers) fork of the frozen state.
//
// Chains are safe for concurrent use: lookups serialize only the lazy
// extension, and the returned States are immutable (vm.Program.Resume
// forks them).
package snapshot

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/vm"
)

// DefaultMaxSnapshots caps a chain's snapshot count; the stride is widened
// when the trace is long enough to exceed it. Bounds memory at roughly
// maxSnapshots x live-page-set.
const DefaultMaxSnapshots = 1024

// MinStride is the smallest auto-selected stride: below this, capture
// overhead rivals the replay it saves.
const MinStride = 64

// DirtyPageBuckets is the histogram layout for per-capture dirty pages.
var DirtyPageBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

// Config tunes snapshot placement.
type Config struct {
	// Stride is the event distance between snapshots; 0 picks
	// AutoStride(totalEvents).
	Stride int64
	// MaxSnapshots caps the chain length (0 = DefaultMaxSnapshots); the
	// stride widens to fit.
	MaxSnapshots int
}

// AutoStride returns the default snapshot spacing for a trace of the given
// length: ~sqrt(T) events, floored at MinStride. With T/stride ~ sqrt(T)
// snapshots the worst-case replay delta and the capture count balance —
// total work per campaign pass is O(T + runs*sqrt(T)) instead of
// O(runs*T).
func AutoStride(totalEvents int64) int64 {
	s := int64(math.Sqrt(float64(totalEvents)))
	if s < MinStride {
		s = MinStride
	}
	return s
}

// Stats aggregates chain activity; all fields are atomic so workers update
// them lock-free.
type Stats struct {
	Captures       atomic.Int64
	Restores       atomic.Int64
	Converged      atomic.Int64
	ReplayedEvents atomic.Int64
	SkippedEvents  atomic.Int64
	DirtyPages     atomic.Int64
}

// View is a point-in-time copy of Stats in the shape shared by
// `campaign status -json` and the /campaign endpoint.
type View struct {
	Enabled        bool  `json:"enabled"`
	Stride         int64 `json:"stride"`
	Captures       int64 `json:"captures"`
	Restores       int64 `json:"restores"`
	Converged      int64 `json:"converged"`
	ReplayedEvents int64 `json:"replayed_events"`
	SkippedEvents  int64 `json:"skipped_events"`
	DirtyPages     int64 `json:"dirty_pages"`
}

// Chain is a lazily-extended sequence of golden-path snapshots.
type Chain struct {
	mu     sync.Mutex
	exec   *vm.Exec
	live   bool  // golden execution still has instructions left
	cursor int64 // next nominal capture event
	snaps  []*vm.State
	stride int64

	lastDirty int64
	stats     Stats
}

// NewChain starts a golden execution of p under cfg and captures its
// event-0 state. totalEvents is the golden trace length (it sizes the auto
// stride); cfg must match the fault-injection run configuration exactly
// (layout, alignment, budget) or resumed runs will diverge from scratch
// runs.
func NewChain(p *vm.Program, cfg interp.Config, totalEvents int64, scfg Config) (*Chain, error) {
	stride := scfg.Stride
	if stride <= 0 {
		stride = AutoStride(totalEvents)
	}
	maxSnaps := scfg.MaxSnapshots
	if maxSnaps <= 0 {
		maxSnaps = DefaultMaxSnapshots
	}
	if totalEvents/stride >= int64(maxSnaps) {
		stride = totalEvents/int64(maxSnaps) + 1
	}
	exec, err := p.NewExec(cfg)
	if err != nil {
		return nil, err
	}
	c := &Chain{exec: exec, live: true, cursor: stride, stride: stride}
	c.capture()
	return c, nil
}

// Stride returns the effective snapshot spacing.
func (c *Chain) Stride() int64 { return c.stride }

// Len returns the number of snapshots captured so far.
func (c *Chain) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.snaps)
}

// capture records the execution's current state. Caller holds mu (or is
// the constructor).
func (c *Chain) capture() {
	c.snaps = append(c.snaps, c.exec.Capture())
	dirty := c.exec.DirtyPages() - c.lastDirty
	c.lastDirty = c.exec.DirtyPages()
	c.stats.Captures.Add(1)
	c.stats.DirtyPages.Add(dirty)
	if r := obs.Default(); r != nil {
		r.Counter("epvf_snapshot_captures_total").Inc()
		r.Histogram("epvf_snapshot_dirty_pages", DirtyPageBuckets).Observe(float64(dirty))
	}
}

// extendTo advances the golden execution, capturing at stride boundaries,
// until the next nominal capture point would pass event (or the program
// ends). Caller holds mu.
func (c *Chain) extendTo(event int64) {
	for c.live && c.cursor <= event {
		stop := c.cursor
		c.cursor += c.stride
		c.live = c.exec.Advance(stop)
		if !c.live {
			return
		}
		// Phi groups and fused pairs retire atomically, so the pause can
		// undershoot the nominal point; skip duplicate captures at an
		// unchanged event.
		if c.exec.Event() > c.snaps[len(c.snaps)-1].Event() {
			c.capture()
		}
	}
}

// Nearest returns the latest snapshot at-or-below event, extending the
// chain if the frontier has not reached it yet. The event-0 snapshot
// guarantees a hit.
func (c *Chain) Nearest(event int64) *vm.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.extendTo(event)
	i := sort.Search(len(c.snaps), func(i int) bool { return c.snaps[i].Event() > event })
	return c.snaps[i-1]
}

// Next returns the first snapshot with Event > after, or nil when the
// golden execution ends before another snapshot exists. It serves as the
// checkpoint source for vm.Convergence.
func (c *Chain) Next(after int64) *vm.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		i := sort.Search(len(c.snaps), func(i int) bool { return c.snaps[i].Event() > after })
		if i < len(c.snaps) {
			return c.snaps[i]
		}
		if !c.live {
			return nil
		}
		c.extendTo(c.cursor) // one more stride step
	}
}

// NoteRestore records one resumed run's accounting: events actually
// executed versus skipped (restored prefix plus any converged tail).
func (c *Chain) NoteRestore(res *interp.Result) {
	c.stats.Restores.Add(1)
	c.stats.ReplayedEvents.Add(res.Executed)
	c.stats.SkippedEvents.Add(res.DynInstrs - res.Executed)
	if res.Converged {
		c.stats.Converged.Add(1)
	}
	if r := obs.Default(); r != nil {
		r.Counter("epvf_snapshot_restores_total").Inc()
		r.Counter("epvf_snapshot_replayed_events_total").Add(res.Executed)
		r.Counter("epvf_snapshot_skipped_events_total").Add(res.DynInstrs - res.Executed)
		if res.Converged {
			r.Counter("epvf_snapshot_converged_total").Inc()
		}
	}
}

// View snapshots the chain's stats.
func (c *Chain) View() View {
	return View{
		Enabled:        true,
		Stride:         c.stride,
		Captures:       c.stats.Captures.Load(),
		Restores:       c.stats.Restores.Load(),
		Converged:      c.stats.Converged.Load(),
		ReplayedEvents: c.stats.ReplayedEvents.Load(),
		SkippedEvents:  c.stats.SkippedEvents.Load(),
		DirtyPages:     c.stats.DirtyPages.Load(),
	}
}
