package rangeprop

import (
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/bench"
	"repro/internal/crash"
	"repro/internal/ddg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/trace"
)

// oracleAnalyze is the reference walk: Algorithms 1–2 with a fresh visited
// map per access and map-keyed crash masks, the straightforward form the
// dense, scratch-reusing Walker must reproduce exactly. It shares Table III
// (invert) and the mask functions with the Walker, so a disagreement
// points at the walk's bookkeeping rather than at the transfer functions.
func oracleAnalyze(tr *trace.Trace, aceMask []bool, cfg Config) (uses map[trace.Use]uint64, defs map[int64]uint64, accesses int64) {
	if cfg.Model == nil {
		cfg.Model = crash.NewModel()
	}
	maxDepth := cfg.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}
	uses, defs = map[trace.Use]uint64{}, map[int64]uint64{}
	for _, seed := range Seeds(tr, aceMask) {
		bound, ok := cfg.Model.Boundary(tr, seed)
		if !ok {
			continue
		}
		accesses++
		ptrOp := 0
		if tr.Instr(seed).Op == ir.OpStore {
			ptrOp = 1
		}
		visited := map[int64]bool{}
		work := []item{{ev: seed, op: ptrOp, r: bound, direct: true}}
		for len(work) > 0 {
			it := work[len(work)-1]
			work = work[:len(work)-1]
			in := tr.Instr(it.ev)
			v := tr.Ops(it.ev)[it.op]
			width := trace.OperandWidth(in, it.op)
			if trace.InjectableOperand(in, it.op) || in.Op == ir.OpPhi {
				var mask uint64
				if it.direct && cfg.ExactAddress {
					mask = cfg.Model.MaskExact(tr, it.ev, v, width)
				} else {
					mask = crash.MaskFromBound(v, width, it.r)
				}
				if mask != 0 {
					uses[trace.Use{Event: it.ev, Op: it.op}] |= mask
				}
			}
			def := tr.OpDefs(it.ev)[it.op]
			if def == trace.NoDef || visited[def] || (maxDepth > 0 && it.depth >= maxDepth) {
				continue
			}
			visited[def] = true
			next, n := invert(tr, def, it.r)
			for _, nxt := range next[:n] {
				nxt.depth = it.depth + 1
				work = append(work, nxt)
			}
		}
	}
	for u, m := range uses {
		if d := tr.OpDefs(u.Event); u.Op < len(d) && d[u.Op] != trace.NoDef {
			defs[d[u.Op]] |= m
		}
	}
	return uses, defs, accesses
}

// oracleConfigs are the configurations the Walker is checked under: the
// default, unbounded depth, the exact-address oracle and the naive crash
// model.
var oracleConfigs = []struct {
	name string
	cfg  Config
}{
	{"default", Config{}},
	{"unbounded", Config{MaxDepth: -1}},
	{"exact", Config{ExactAddress: true}},
	{"nostackrule", Config{Model: &crash.Model{StackRule: false}}},
}

// TestWalkMatchesOracle compares the Walker's per-use and per-def masks
// and tallies with the reference walk on every built-in kernel, under
// each of oracleConfigs.
func TestWalkMatchesOracle(t *testing.T) {
	for _, b := range bench.All() {
		if (testing.Short() || raceEnabled) && b.Name != "mm" && b.Name != "nw" {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			golden, err := interp.Run(b.MustModule(1), interp.Config{Record: true})
			if err != nil {
				t.Fatal(err)
			}
			tr := golden.Trace
			g := ddg.New(tr)
			ace := g.ACEMask()
			for _, c := range oracleConfigs {
				wantUses, wantDefs, wantAcc := oracleAnalyze(tr, ace, c.cfg)
				res := Analyze(tr, g, ace, c.cfg)
				gotUses, gotDefs := masksOf(res)
				if res.AccessesAnalyzed != wantAcc {
					t.Errorf("%s: %d accesses, oracle %d", c.name, res.AccessesAnalyzed, wantAcc)
				}
				if !reflect.DeepEqual(gotUses, wantUses) {
					t.Errorf("%s: per-use masks differ (%d vs oracle %d uses)", c.name, len(gotUses), len(wantUses))
				}
				if !reflect.DeepEqual(gotDefs, wantDefs) {
					t.Errorf("%s: per-def masks differ (%d vs oracle %d defs)", c.name, len(gotDefs), len(wantDefs))
				}
				var useBits, defBits int64
				for _, m := range wantUses {
					useBits += int64(crash.PopCount(m))
				}
				for _, m := range wantDefs {
					defBits += int64(crash.PopCount(m))
				}
				if res.UseCrashBitCount != useBits || res.CrashBitCount != defBits {
					t.Errorf("%s: bit tallies use %d def %d, oracle %d %d",
						c.name, res.UseCrashBitCount, res.CrashBitCount, useBits, defBits)
				}
			}
		})
	}
}

// TestAnalyzeSeedsAllocsIndependentOfSeeds: the walk's allocations are
// fixed per call — a quarter of the seeds allocates exactly as much as
// all of them, so nothing is allocated per access or per event reached.
func TestAnalyzeSeedsAllocsIndependentOfSeeds(t *testing.T) {
	b, _ := bench.Get("lud")
	golden, err := interp.Run(b.MustModule(1), interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := golden.Trace
	seeds := Seeds(tr, ddg.New(tr).ACEMask())
	if len(seeds) < 400 {
		t.Fatalf("only %d seeds", len(seeds))
	}
	// With the collector off, the runtime's own per-GC-cycle allocations
	// cannot land in one measurement and not the other.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(s []int64) float64 {
		return testing.AllocsPerRun(3, func() { AnalyzeSeeds(tr, Config{}, s, nil) })
	}
	quarter, full := allocs(seeds[:len(seeds)/4]), allocs(seeds)
	if quarter != full {
		t.Fatalf("AnalyzeSeeds allocates %v times for %d seeds but %v for %d", quarter, len(seeds)/4, full, len(seeds))
	}
}
