package epvf

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
)

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	a, res, err := AnalyzeModule(m, Config{})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if res.Exception != nil {
		t.Fatalf("golden exception: %v", res.Exception)
	}
	return a
}

const kernelSrc = `
void main() {
  long *a = malloc(48 * 8);
  int i;
  for (i = 0; i < 48; i = i + 1) { a[i] = i * 3; }
  long s = 0;
  for (i = 0; i < 48; i = i + 1) { s = s + a[i]; }
  output(s);
  free(a);
}
`

func TestMetricOrdering(t *testing.T) {
	a := analyze(t, kernelSrc)
	pvf, epvfV, crashRate := a.PVF(), a.EPVF(), a.CrashRate()
	if !(pvf > 0 && pvf <= 1) {
		t.Errorf("PVF = %v out of range", pvf)
	}
	if !(epvfV >= 0 && epvfV < pvf) {
		t.Errorf("ePVF (%v) must be below PVF (%v)", epvfV, pvf)
	}
	if crashRate <= 0 || crashRate >= 1 {
		t.Errorf("crash rate = %v out of range", crashRate)
	}
	// ePVF = PVF - crashRate by construction (crash bits are ACE bits).
	if diff := pvf - crashRate - epvfV; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("ePVF (%v) != PVF (%v) - crashRate (%v)", epvfV, pvf, crashRate)
	}
	if red := a.VulnerableBitReduction(); red <= 0 || red >= 1 {
		t.Errorf("vulnerable-bit reduction = %v out of range", red)
	}
}

func TestAnalysisCounters(t *testing.T) {
	a := analyze(t, kernelSrc)
	if a.TotalBits <= 0 || a.ACEBits <= 0 || a.ACEBits > a.TotalBits {
		t.Errorf("bit counters inconsistent: total=%d ace=%d", a.TotalBits, a.ACEBits)
	}
	if a.CrashResult.CrashBitCount <= 0 || a.CrashResult.CrashBitCount > a.ACEBits {
		t.Errorf("crash bits (%d) out of range vs ACE bits (%d)",
			a.CrashResult.CrashBitCount, a.ACEBits)
	}
	if a.ACENodes <= 0 || a.ACENodes > a.Trace.NumEvents() {
		t.Errorf("ACE nodes = %d out of range", a.ACENodes)
	}
	if a.Timing.GraphBuild <= 0 || a.Timing.Models <= 0 {
		t.Errorf("timings not recorded: %+v", a.Timing)
	}
}

func TestPerInstruction(t *testing.T) {
	a := analyze(t, kernelSrc)
	per := a.PerInstruction()
	if len(per) == 0 {
		t.Fatal("no per-instruction data")
	}
	var sawDiscriminating bool
	dynTotal := int64(0)
	for in, v := range per {
		dynTotal += v.Dynamic
		if v.PVF() < 0 || v.PVF() > 1 || v.EPVF() < 0 || v.EPVF() > 1 {
			t.Fatalf("%s: PVF=%v ePVF=%v out of range", in.Op, v.PVF(), v.EPVF())
		}
		if v.EPVF() > v.PVF() {
			t.Fatalf("%s: ePVF above PVF", in.Op)
		}
		if v.PVF() > 0.9 && v.EPVF() < 0.5 {
			sawDiscriminating = true
		}
	}
	if dynTotal != a.Trace.NumEvents() {
		t.Errorf("per-instruction dynamic counts sum to %d, want %d", dynTotal, a.Trace.NumEvents())
	}
	// The Fig. 12 phenomenon: some instructions have PVF ~1 but much lower
	// ePVF (their bits are crash-prone, not SDC-prone).
	if !sawDiscriminating {
		t.Error("no instruction shows the PVF~1 / low-ePVF split that motivates ePVF ranking")
	}
}

func TestSampledEstimateCloseToFull(t *testing.T) {
	// A regular kernel: the 10%-sample estimate must be within a few
	// points of the full ePVF (Fig. 11).
	b, _ := bench.Get("mm")
	m := b.MustModule(1)
	a, _, err := AnalyzeModule(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	full := a.EPVF()
	est := SampledEstimate(a.Trace, 0.10, Config{})
	if diff := est - full; diff > 0.1 || diff < -0.1 {
		t.Errorf("sampled estimate %v vs full %v: error too large", est, full)
	}
}

func TestSamplingVarianceDiscriminates(t *testing.T) {
	// The variance of tiny random subsamples must be small for a
	// repetitive kernel (§IV-E uses it to predict sampling safety).
	b, _ := bench.Get("mm")
	m := b.MustModule(1)
	a, _, err := AnalyzeModule(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	nv := SamplingVariance(a.Trace, 0.01, 6, rng, Config{})
	if nv < 0 {
		t.Errorf("normalized variance negative: %v", nv)
	}
	if nv > 3 {
		t.Errorf("normalized variance = %v, implausibly high for mm", nv)
	}
}

func TestAnalyzeModulePropagatesRunErrors(t *testing.T) {
	b := ir.NewBuilder("broken")
	b.NewFunc("notmain", ir.Void)
	b.Ret(nil)
	if _, _, err := AnalyzeModule(b.MustModule(), Config{}); err == nil {
		t.Error("AnalyzeModule without main must fail")
	}
}

func TestAnalyzeTraceMatchesAnalyzeModule(t *testing.T) {
	m, err := lang.Compile("t", kernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	a1 := AnalyzeTrace(res.Trace, Config{})
	a2, _, err := AnalyzeModule(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a1.PVF() != a2.PVF() || a1.EPVF() != a2.EPVF() {
		t.Error("AnalyzeTrace and AnalyzeModule disagree on the same program")
	}
}

// TestConcurrentAnalyzeTraceSharedTrace: the analysis daemon analyzes one
// cached trace from several requests at once, so the walk scratch must be
// per call. Four goroutines analyze one shared trace; every result must
// equal a serial analysis, down to the per-def crash masks.
func TestConcurrentAnalyzeTraceSharedTrace(t *testing.T) {
	b, _ := bench.Get("mm")
	res, err := interp.Run(b.MustModule(1), interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	want := AnalyzeTrace(res.Trace, Config{})
	wantDefs := want.DefClasses()
	got := make([]*Analysis, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = AnalyzeTrace(res.Trace, Config{})
		}(i)
	}
	wg.Wait()
	for i, a := range got {
		if a.TotalBits != want.TotalBits || a.ACEBits != want.ACEBits ||
			a.CrashResult.CrashBitCount != want.CrashResult.CrashBitCount ||
			a.CrashResult.UseCrashBitCount != want.CrashResult.UseCrashBitCount ||
			a.CrashResult.AccessesAnalyzed != want.CrashResult.AccessesAnalyzed {
			t.Fatalf("goroutine %d: numerators differ from the serial analysis", i)
		}
		if !reflect.DeepEqual(a.DefClasses(), wantDefs) {
			t.Fatalf("goroutine %d: per-def crash masks differ from the serial analysis", i)
		}
	}
}

func TestMeanVar(t *testing.T) {
	m, v := meanVar([]float64{2, 4, 6})
	if m != 4 || v != 4 {
		t.Errorf("meanVar = %v, %v; want 4, 4", m, v)
	}
	if m, v := meanVar(nil); m != 0 || v != 0 {
		t.Errorf("meanVar(nil) = %v, %v", m, v)
	}
	if _, v := meanVar([]float64{5}); v != 0 {
		t.Errorf("single-sample variance = %v", v)
	}
}

func TestPerFunction(t *testing.T) {
	m, err := lang.Compile("pf", `
double square(double x) { return x * x; }
void main() {
  double *v = malloc(16 * 8);
  int i;
  for (i = 0; i < 16; i = i + 1) { v[i] = square((double)i); }
  double s = 0.0;
  for (i = 0; i < 16; i = i + 1) { s = s + v[i]; }
  output(s);
  free(v);
}`)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := AnalyzeModule(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	funcs := a.PerFunction()
	if len(funcs) != 2 {
		t.Fatalf("functions = %d, want 2", len(funcs))
	}
	var total int64
	for _, v := range funcs {
		total += v.Dynamic
		if v.PVF() <= 0 || v.PVF() > 1 || v.EPVF() > v.PVF() {
			t.Errorf("%s: PVF=%v ePVF=%v out of order", v.Func.Name, v.PVF(), v.EPVF())
		}
	}
	if total != a.Trace.NumEvents() {
		t.Errorf("per-function dynamics sum to %d, want %d", total, a.Trace.NumEvents())
	}
	// Ordered by descending SDC-prone bit mass.
	for i := 1; i < len(funcs); i++ {
		if funcs[i-1].ACEBits-funcs[i-1].CrashBits < funcs[i].ACEBits-funcs[i].CrashBits {
			t.Error("per-function order not descending")
		}
	}
}
