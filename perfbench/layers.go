package main

import (
	"fmt"
	"runtime"

	"repro/internal/crash"
	"repro/internal/ddg"
	"repro/internal/epvf"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/rangeprop"
	"repro/internal/vm"
)

// layerSet accumulates one traced pass's per-layer values by name.
type layerSet map[string]float64

// timed adds one layer call's seconds and allocation deltas.
func (ls layerSet) timed(name string, secs, allocs, mb float64) {
	ls[name+"_s"] += secs
	ls[name+"_allocs"] += allocs
	ls[name+"_alloc_mb"] += mb
}

// record times call as layer name under parent and accumulates it.
func (ls layerSet) record(rec *recorder, parent int, name string, call func()) {
	secs, allocs, mb := rec.layer(parent, name, call)
	ls.timed(name, secs, allocs, mb)
}

// medianSet returns, per name, the median of the values the sets hold (a
// set without the name counts as 0).
func medianSet(sets []layerSet) layerSet {
	out := layerSet{}
	for _, set := range sets {
		for name := range set {
			var xs []float64
			for _, s := range sets {
				xs = append(xs, s[name])
			}
			out[name] = median(xs)
		}
	}
	return out
}

// merge copies every value of src into ls.
func (ls layerSet) merge(src layerSet) layerSet {
	for k, v := range src {
		ls[k] = v
	}
	return ls
}

// addLayers reports every declared per-layer metric from o.layers, 0 for
// layers the workload left idle, and fails on a value no declaration names.
func (o *outcome) addLayers(declared []declaredMetric) {
	known := map[string]bool{}
	for _, d := range declared {
		known[d.Name] = true
		o.add(d.Name, o.layers[d.Name], d.Unit)
	}
	for name := range o.layers {
		if !known[name] {
			o.fail("per-layer metric %q is not declared in %s", name, specFile)
		}
	}
}

// compileAndAnalyze is the untraced "source → ePVF report" path.
func compileAndAnalyze(name, src string) (*epvf.Analysis, *interp.Result, error) {
	m, err := lang.Compile(name, src)
	if err != nil {
		return nil, nil, err
	}
	return epvf.AnalyzeModule(m, epvf.Config{})
}

// analyzeTraced replays epvf.AnalyzeModule step by step through the
// exported functions of each analysis layer, recording one span per layer
// under parent and accumulating into ls. The result equals AnalyzeModule's.
func analyzeTraced(rec *recorder, parent int, ls layerSet, name, src string) (*epvf.Analysis, *interp.Result, error) {
	var (
		m    *ir.Module
		prog *vm.Program
		res  *interp.Result
		err  error
	)
	step := func(layer string, call func()) { ls.record(rec, parent, layer, call) }
	if step("lang.compile", func() { m, err = lang.Compile(name, src) }); err != nil {
		return nil, nil, err
	}
	if step("vm.compile", func() { prog, err = vm.Compile(m, vm.Options{}) }); err != nil {
		return nil, nil, err
	}
	ls["vm.code_bytes"] += float64(prog.CodeBytes)
	if step("vm.profile", func() { res, err = prog.Run(interp.Config{Record: true}) }); err != nil {
		return nil, nil, err
	}
	if res.Trace == nil {
		return nil, nil, fmt.Errorf("%s: profile recorded no trace", name)
	}
	tr := res.Trace
	ls["trace.events"] += float64(tr.NumEvents())

	var g *ddg.Graph
	var ace []bool
	step("ddg.ace", func() { g = ddg.New(tr); ace = g.ACEMask() })

	var seeds []int64
	step("rangeprop.walk", func() { seeds = rangeprop.Seeds(tr, ace) })
	// The bounds pass repeats what the walk does first for every seed, so
	// its share of rangeprop.walk_s can be read off.
	model := crash.NewModel()
	step("crash.bounds", func() {
		for _, ev := range seeds {
			model.Boundary(tr, ev)
		}
	})
	var cr *rangeprop.Result
	step("rangeprop.walk", func() { cr = rangeprop.AnalyzeSeeds(tr, rangeprop.Config{}, seeds, nil) })
	ls["rangeprop.accesses"] += float64(cr.AccessesAnalyzed)
	step("rangeprop.finalize", func() { cr.Finalize(tr) })
	ls["rangeprop.crash_bits"] += float64(cr.CrashBitCount)
	var a *epvf.Analysis
	step("epvf.compose", func() { a = epvf.Compose(tr, g, ace, cr) })
	ls["ddg.ace_nodes"] += float64(a.ACENodes)
	return a, res, nil
}

// traceBytesPerEvent measures the live heap a recorded golden trace holds
// per event, over the given modules: one extra profiling run each, with a
// full GC before and after so only what the trace retains is counted.
func traceBytesPerEvent(mods []*ir.Module) (float64, error) {
	var bytes, events float64
	for _, m := range mods {
		prog, err := vm.Compile(m, vm.Options{})
		if err != nil {
			return 0, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := prog.Run(interp.Config{Record: true})
		if err != nil {
			return 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		bytes += float64(after.HeapAlloc) - float64(before.HeapAlloc)
		events += float64(res.Trace.NumEvents())
		runtime.KeepAlive(res)
	}
	if events == 0 {
		return 0, fmt.Errorf("no events recorded")
	}
	return bytes / events, nil
}
