package vm

import (
	"expvar"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/obs"
)

// Package-local tallies, mirrored to the obs registry at flush points
// and published as the "epvf_vm" expvar section (the `vm` view on
// /debug/vars). Counting is atomic so concurrent campaign workers can
// share one process.
var vmStats struct {
	compiles      atomic.Int64
	compileNanos  atomic.Int64
	codeBytes     atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	runs          atomic.Int64
	instructions  atomic.Int64
	iterations    atomic.Int64
	fallbacks     atomic.Int64
	hangs         atomic.Int64
	exceptions    atomic.Int64
	convergedRuns atomic.Int64
}

// expvarOnce guards the one-time publication of the vm section
// (expvar.Publish panics on duplicate names).
var expvarOnce sync.Once

func publishExpvar() {
	expvarOnce.Do(func() {
		expvar.Publish("epvf_vm", expvar.Func(func() any {
			return map[string]int64{
				"compiles_total":           vmStats.compiles.Load(),
				"compile_nanos_total":      vmStats.compileNanos.Load(),
				"code_bytes_total":         vmStats.codeBytes.Load(),
				"code_cache_hits_total":    vmStats.cacheHits.Load(),
				"code_cache_misses_total":  vmStats.cacheMisses.Load(),
				"runs_total":               vmStats.runs.Load(),
				"instructions_total":       vmStats.instructions.Load(),
				"dispatch_loop_iterations": vmStats.iterations.Load(),
				"walker_fallbacks_total":   vmStats.fallbacks.Load(),
				"hangs_total":              vmStats.hangs.Load(),
				"exceptions_total":         vmStats.exceptions.Load(),
				"converged_runs_total":     vmStats.convergedRuns.Load(),
			}
		}))
	})
}

// noteCompile publishes one module compilation's tallies.
func noteCompile(p *Program) {
	publishExpvar()
	vmStats.compiles.Add(1)
	vmStats.compileNanos.Add(p.CompileNanos)
	vmStats.codeBytes.Add(p.CodeBytes)
	vmStats.cacheHits.Add(int64(p.CacheHits))
	vmStats.cacheMisses.Add(int64(p.CacheMisses))
	r := obs.Default()
	if r == nil {
		return
	}
	r.Counter("epvf_vm_compiles_total").Inc()
	r.Counter("epvf_vm_compile_nanos_total").Add(p.CompileNanos)
	r.Counter("epvf_vm_code_bytes_total").Add(p.CodeBytes)
	r.Counter("epvf_vm_code_cache_total", "outcome", "hit").Add(int64(p.CacheHits))
	r.Counter("epvf_vm_code_cache_total", "outcome", "miss").Add(int64(p.CacheMisses))
}

// noteFallback counts one module the VM could not compile, which
// therefore runs on the walker.
func noteFallback(reason string) {
	publishExpvar()
	vmStats.fallbacks.Add(1)
	if r := obs.Default(); r != nil {
		r.Counter("epvf_vm_fallbacks_total", "reason", reason).Inc()
	}
}

// noteRun publishes one run's tallies, the VM counterpart of the
// walker's epvf_interp_* flush.
func noteRun(m *machine) {
	vmStats.runs.Add(1)
	vmStats.instructions.Add(m.executed)
	vmStats.iterations.Add(m.iters)
	if m.hang {
		vmStats.hangs.Add(1)
	}
	if m.exc != nil {
		vmStats.exceptions.Add(1)
	}
	if m.converged {
		vmStats.convergedRuns.Add(1)
	}
	r := obs.Default()
	if r == nil {
		return
	}
	r.Counter("epvf_vm_runs_total").Inc()
	r.Counter("epvf_vm_instructions_total").Add(m.executed)
	r.Counter("epvf_vm_dispatch_iterations_total").Add(m.iters)
	r.Counter("epvf_vm_loads_total").Add(m.loads)
	r.Counter("epvf_vm_stores_total").Add(m.stores)
	if m.exc != nil {
		r.Counter("epvf_vm_exceptions_total", "kind", m.exc.Kind.MetricLabel()).Inc()
	}
	if m.hang {
		r.Counter("epvf_vm_hangs_total").Inc()
	}
}

// defaultStore is the package-default compile cache, mirroring
// obs.SetDefault: process setup wires a store once and every Compile
// without an explicit Options.Cache uses it.
var defaultStore atomic.Pointer[cache.Store]

// DefaultCache returns the package-default compile cache, or nil.
func DefaultCache() *cache.Store { return defaultStore.Load() }

// SetDefaultCache installs the package-default compile cache. Nil
// disables caching for Compile calls without an explicit store.
func SetDefaultCache(s *cache.Store) { defaultStore.Store(s) }
