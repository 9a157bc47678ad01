package rangeprop

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ddg"
	"repro/internal/interp"
)

// BenchmarkAnalyze measures the crash+propagation model over a full
// benchmark trace — the dominant cost of the ePVF analysis (Fig. 10).
func BenchmarkAnalyze(b *testing.B) {
	bb, _ := bench.Get("lud")
	m := bb.MustModule(1)
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		b.Fatal(err)
	}
	g := ddg.New(res.Trace)
	mask := g.ACEMask()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Analyze(res.Trace, g, mask, Config{})
		if r.CrashBitCount == 0 {
			b.Fatal("no crash bits")
		}
	}
}

// BenchmarkAnalyzeExact measures the exact-oracle variant.
func BenchmarkAnalyzeExact(b *testing.B) {
	bb, _ := bench.Get("lud")
	m := bb.MustModule(1)
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		b.Fatal(err)
	}
	g := ddg.New(res.Trace)
	mask := g.ACEMask()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(res.Trace, g, mask, Config{ExactAddress: true})
	}
}
