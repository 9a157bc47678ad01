package fi

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/snapshot"
)

// resumeSink keeps the benchmarked RunIndex results observable.
var resumeSink Record

// BenchmarkResumeInjection measures the per-injection replay cost of a
// snapshot-backed campaign: each iteration is one RunIndex that restores
// the nearest golden snapshot, applies the fault and runs the delta with
// convergence fast-forward on the VM. events/s counts the replayed
// (executed) events, the number the snapshot chain tallies per restore.
func BenchmarkResumeInjection(b *testing.B) {
	for _, name := range []string{"lud", "mm"} {
		b.Run(name, func(b *testing.B) {
			bm, ok := bench.Get(name)
			if !ok {
				b.Fatalf("no %s benchmark", name)
			}
			m := bm.MustModule(1)
			g, err := interp.Run(m, interp.Config{Record: true})
			if err != nil {
				b.Fatal(err)
			}
			r, err := NewRunner(m, g, Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if ok, err := r.EnableSnapshots(snapshot.Config{}); err != nil || !ok {
				b.Fatalf("EnableSnapshots = %v, %v", ok, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resumeSink = r.RunIndex(int64(i))
			}
			b.StopTimer()
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(r.SnapshotView().ReplayedEvents)/s, "events/s")
			}
		})
	}
}
