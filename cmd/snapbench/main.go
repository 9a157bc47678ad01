// Command snapbench measures the copy-on-write snapshot speedup: it runs
// the same fault-injection campaign twice — every run from scratch, then
// with snapshot restore + convergence fast-forward — verifies the two
// produce bit-identical records, and emits the comparison as JSON. The
// committed BENCH_snapshot.json at the repository root is its output;
// re-run
//
//	snapbench -out BENCH_snapshot.json
//
// after interpreter or snapshot changes to refresh it. The campaign runs
// with a deterministic layout (no ASLR jitter): jittered layouts draw a
// fresh address space per run, which rules snapshots out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/epvf"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/snapshot"
)

// comparison is one benchmark's scratch-vs-snapshot measurement.
type comparison struct {
	Benchmark       string  `json:"benchmark"`
	Runs            int64   `json:"runs"`
	Seed            int64   `json:"seed"`
	TraceEvents     int64   `json:"trace_events"`
	SnapshotStride  int64   `json:"snapshot_stride"`
	ScratchSeconds  float64 `json:"scratch_seconds"`
	SnapshotSeconds float64 `json:"snapshot_seconds"`
	// Speedup is wall-clock (machine-dependent); EventSpeedup is the
	// deterministic ratio of events a scratch campaign executes to the
	// events the snapshot campaign executed (replayed deltas plus one
	// golden pass, bounded above by the trace length).
	Speedup      float64        `json:"speedup"`
	EventSpeedup float64        `json:"event_speedup"`
	Snapshot     *snapshot.View `json:"snapshot"`
}

type baseline struct {
	// Note is a human pointer, not provenance: wall times are
	// machine-dependent; EventSpeedup and the snapshot counters are
	// deterministic and comparable across machines.
	Note    string       `json:"note"`
	Workers int          `json:"workers"`
	Bench   []comparison `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "snapbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("snapbench", flag.ContinueOnError)
	outPath := fs.String("out", "", "write the JSON comparison here (default stdout)")
	benchName := fs.String("bench", "lulesh", "built-in benchmark name")
	scale := fs.Int("scale", 1, "benchmark input scale")
	runs := fs.Int64("runs", 600, "injections per campaign")
	seed := fs.Int64("seed", 2016, "campaign seed")
	workers := fs.Int("workers", runtime.NumCPU(), "injection worker goroutines")
	stride := fs.Int64("snapshot-stride", 0, "events between snapshots (0 = auto)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	b, ok := bench.Get(*benchName)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", *benchName)
	}
	m, err := b.Module(*scale)
	if err != nil {
		return err
	}
	golden, err := epvf.RunProfile(m, interp.Config{})
	if err != nil {
		return fmt.Errorf("golden run: %w", err)
	}
	cfg := fi.Config{Seed: *seed} // deterministic layout: snapshots apply

	scratchRunner, err := fi.NewRunner(m, golden, cfg)
	if err != nil {
		return err
	}
	t0 := time.Now()
	scratchRecs := scratchRunner.RunRange(0, *runs, *workers)
	scratchSec := time.Since(t0).Seconds()

	snapRunner, err := fi.NewRunner(m, golden, cfg)
	if err != nil {
		return err
	}
	if ok, err := snapRunner.EnableSnapshots(snapshot.Config{Stride: *stride}); err != nil || !ok {
		return fmt.Errorf("enabling snapshots: ok=%v err=%v", ok, err)
	}
	t0 = time.Now()
	snapRecs := snapRunner.RunRange(0, *runs, *workers)
	snapSec := time.Since(t0).Seconds()

	for i := range scratchRecs {
		if snapRecs[i] != scratchRecs[i] {
			return fmt.Errorf("bit-identity violated at run %d: scratch %+v, snapshot %+v",
				i, scratchRecs[i], snapRecs[i])
		}
	}

	v := snapRunner.SnapshotView()
	scratchEvents := v.ReplayedEvents + v.SkippedEvents
	snapEvents := v.ReplayedEvents + golden.DynInstrs
	c := comparison{
		Benchmark:       *benchName,
		Runs:            *runs,
		Seed:            *seed,
		TraceEvents:     golden.DynInstrs,
		SnapshotStride:  v.Stride,
		ScratchSeconds:  scratchSec,
		SnapshotSeconds: snapSec,
		Speedup:         scratchSec / snapSec,
		EventSpeedup:    float64(scratchEvents) / float64(snapEvents),
		Snapshot:        v,
	}
	base := baseline{
		Note:    "scratch vs snapshot campaign on the bytecode VM; wall times are machine-dependent — event_speedup and the snapshot counters are deterministic",
		Workers: *workers,
		Bench:   []comparison{c},
	}

	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(base); err != nil {
		return err
	}
	if *outPath != "" {
		fmt.Fprintf(out, "snapbench: %s %d runs — scratch %.2fs, snapshot %.2fs (%.1fx wall, %.1fx events) -> %s\n",
			c.Benchmark, c.Runs, c.ScratchSeconds, c.SnapshotSeconds, c.Speedup, c.EventSpeedup, *outPath)
	}
	return nil
}
