package vm_test

import (
	"runtime/debug"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/vm"
)

// recordEngines runs a recorded golden run of a module on each engine.
var recordEngines = []struct {
	name string
	run  func(t testing.TB, m *ir.Module) func() *interp.Result
}{
	{"vm", func(t testing.TB, m *ir.Module) func() *interp.Result {
		prog, err := vm.Compile(m, vm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return func() *interp.Result {
			res, err := prog.Run(interp.Config{Record: true})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}},
	{"walker", func(t testing.TB, m *ir.Module) func() *interp.Result {
		return func() *interp.Result {
			res, err := interp.Run(m, interp.Config{Record: true})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}},
}

// TestRecordAllocsPerEvent checks that recording a golden trace allocates
// nothing per event on either engine: going from lud at scale 1 to scale 2
// adds ~350k events and must add fewer than one allocation per 10,000 of
// them (only new trace chunks and newly touched memory pages allocate).
func TestRecordAllocsPerEvent(t *testing.T) {
	b, ok := bench.Get("lud")
	if !ok {
		t.Fatal("no lud benchmark")
	}
	// With the collector off, the runtime's own per-GC-cycle allocations
	// do not count against the recorder.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, eng := range recordEngines {
		t.Run(eng.name, func(t *testing.T) {
			var events, allocs [2]float64
			for i, scale := range []int{1, 2} {
				run := eng.run(t, b.MustModule(scale))
				events[i] = float64(run().Trace.NumEvents())
				allocs[i] = testing.AllocsPerRun(2, func() { run() })
			}
			extra := events[1] - events[0]
			if extra < 100_000 {
				t.Fatalf("scale 2 adds only %v events", extra)
			}
			if per := (allocs[1] - allocs[0]) / extra; per >= 1e-4 {
				t.Errorf("recording allocates %.2g objects per extra event (%v -> %v allocs for %v -> %v events), want < 1e-4",
					per, allocs[0], allocs[1], events[0], events[1])
			}
		})
	}
}

// BenchmarkRecord measures a recorded golden run of lud on the VM: the
// profiling step of every analysis.
func BenchmarkRecord(b *testing.B) {
	bm, ok := bench.Get("lud")
	if !ok {
		b.Fatal("no lud benchmark")
	}
	run := recordEngines[0].run(b, bm.MustModule(2))
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		events += run().Trace.NumEvents()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
