package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/epvf"
	"repro/internal/ir"
	"repro/internal/lang"
)

// analyzeScale is the suite scale of analyze-suite: large enough that the
// traces run from ~100k (bfs) to ~920k (lavamd) events, so costs that grow
// with event count show.
const analyzeScale = 2

// pinned holds the ePVF numerators of every built-in kernel at
// analyzeScale. A change to the analysis that alters any of them is a
// change in results, not in speed, and fails the workload.
var pinned = map[string][3]int64{ // TotalBits, ACEBits, CrashBitCount
	"lulesh":         {7148720, 7140208, 3628750},
	"particlefilter": {12435186, 12358322, 5252193},
	"srad":           {34057694, 32624222, 13896995},
	"nw":             {8484078, 8369454, 4332884},
	"hotspot":        {29839582, 28527454, 11043232},
	"lavamd":         {45139534, 35210830, 15735700},
	"bfs":            {2744617, 2693417, 1347277},
	"lud":            {15039518, 14964190, 8749802},
	"pathfinder":     {9844040, 9745544, 4727742},
	"mm":             {18031494, 17920710, 8616943},
	"kmeans":         {16828498, 16633938, 7243655},
}

type kernelSrc struct{ name, src string }

// exactCounts are the deterministic counts of one analysis; they must
// repeat exactly across passes.
type exactCounts struct{ events, aceNodes, accesses, crashBits int64 }

func countsOf(a *epvf.Analysis) exactCounts {
	return exactCounts{a.Trace.NumEvents(), a.ACENodes, a.CrashResult.AccessesAnalyzed, a.CrashResult.CrashBitCount}
}

// runAnalyzeSuite is the "source → ePVF report" path: all built-in kernels
// compiled from MiniC and analyzed serially on one goroutine, in an order
// shuffled by the seed.
func runAnalyzeSuite(op opts) *outcome {
	o := &outcome{}
	setup := func() []kernelSrc {
		var ks []kernelSrc
		for _, b := range bench.All() {
			ks = append(ks, kernelSrc{b.Name, b.SourceAt(analyzeScale)})
		}
		rand.New(rand.NewSource(op.seed)).Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		// One small warm-up analysis, so lazy runtime set-up (heap growth,
		// first-touch page faults) is not charged to the first pass.
		b, _ := bench.Get("bfs")
		if _, _, err := compileAndAnalyze("bfs", b.SourceAt(1)); err != nil {
			o.fail("warm-up analysis: %v", err)
		}
		return ks
	}
	var setupDs []float64
	kernels := setupBefore(&setupDs, setup)
	first := map[string]exactCounts{}
	check := func(name string, a *epvf.Analysis) {
		o.attempted++
		got := [3]int64{a.TotalBits, a.ACEBits, a.CrashResult.CrashBitCount}
		if want, ok := pinned[name]; got != want {
			o.fail("%s: numerators %v, pinned %v (known kernel: %v)", name, got, want, ok)
		}
		c := countsOf(a)
		if prev, seen := first[name]; seen && prev != c {
			o.fail("%s: exact-repeat counts changed between passes: %+v then %+v", name, prev, c)
		}
		first[name] = c
	}
	events := func() float64 {
		var n int64
		for _, c := range first {
			n += c.events
		}
		return float64(n)
	}

	// Untraced passes: lang.Compile + epvf.AnalyzeModule per kernel.
	untraced := func(window float64) (passes, ops []float64) {
		start := time.Now()
		for keepMeasuring(start, passes, window) {
			t0 := time.Now()
			for _, k := range kernels {
				k0 := time.Now()
				a, _, err := compileAndAnalyze(k.name, k.src)
				ops = append(ops, float64(time.Since(k0).Nanoseconds())/1e6)
				if err != nil {
					o.attempted++
					o.fail("%s: %v", k.name, err)
					continue
				}
				check(k.name, a)
			}
			passes = append(passes, time.Since(t0).Seconds())
		}
		return passes, ops
	}
	if !op.trace {
		live := startLiveSampler()
		passes, ops := untraced(op.seconds)
		peak := live.peakMB()
		o.e2e(setupAfter(&setupDs, setup), passes, events(), peak)
		t, pct := tail(ops)
		fmt.Fprintf(os.Stderr, "analyze_s %.4f s, analyze_peak_mb %.1f MB (peak RSS); per kernel p50 %.2f ms, tail %.2f ms at p%.1f of %d\n",
			median(passes), peakRSSMB(), median(ops), t, pct, len(ops))
		return o
	}

	// Traced run: one untraced pass for the overhead baseline, then the
	// step-by-step replay with a span per layer for the rest of the window.
	start := time.Now()
	uPasses, uOps := untraced(0)
	rec := newRecorder()
	root, endRoot := rec.open(0, "analyze-suite")
	var tPasses, tOps []float64
	var sets []layerSet
	for len(tPasses) == 0 || keepMeasuring(start, append(slices.Clone(uPasses), tPasses...), op.seconds) {
		ls := layerSet{}
		t0 := time.Now()
		pass, endPass := rec.open(root, "pass")
		for _, k := range kernels {
			k0 := time.Now()
			kid, endKernel := rec.open(pass, "kernel")
			a, _, err := analyzeTraced(rec, kid, ls, k.name, k.src)
			endKernel()
			tOps = append(tOps, float64(time.Since(k0).Nanoseconds())/1e6)
			if err != nil {
				o.attempted++
				o.fail("%s: %v", k.name, err)
				continue
			}
			check(k.name, a)
		}
		endPass()
		tPasses = append(tPasses, time.Since(t0).Seconds())
		sets = append(sets, ls)
	}
	endRoot()
	var mods []*ir.Module
	for _, k := range kernels {
		m, err := lang.Compile(k.name, k.src)
		if err != nil {
			o.fail("%s: %v", k.name, err)
			continue
		}
		mods = append(mods, m)
	}
	o.finishTrace(rec, medianSet(sets), mods, phases{uPasses, uOps, tPasses, tOps}, events())
	return o
}
