package campaign

import (
	"context"
	"testing"

	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/snapshot"
	"repro/internal/vm"
)

// sameAsWalker re-executes every stride-th record's target from scratch
// on the walker (fi.RunOne, the reference semantics) and requires the
// campaign's record.
func sameAsWalker(t *testing.T, name string, m *ir.Module, g *interp.Result, plan *Plan, recs []fi.Record, stride int) {
	t.Helper()
	for i := 0; i < len(recs); i += stride {
		want := fi.RunOne(m, g, recs[i].Target, plan.FIConfig(), nil)
		if recs[i] != want {
			t.Fatalf("%s: record %d = %+v, walker %+v", name, i, recs[i], want)
		}
	}
}

// TestEngineVMMatchesWalker: the same plan executed on the VM with and
// without snapshots produces identical records and per-shard merge hashes,
// and a sample of them matches a from-scratch walker run of the same
// target.
func TestEngineVMMatchesWalker(t *testing.T) {
	g := golden(t, kernelSrc)
	m := g.Trace.Module
	plan := noJitterPlan(t, g, 120, 30)

	variants := map[string]RunOptions{
		"snapshot": {Workers: 4},
		"scratch":  {Workers: 4, Snapshot: SnapshotOptions{Disabled: true}},
	}
	results := make(map[string]*Result)
	for name, opts := range variants {
		res, err := Run(context.Background(), m, g, plan, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Complete {
			t.Fatalf("%s: incomplete", name)
		}
		results[name] = res
	}
	ref := results["scratch"]
	sameAsWalker(t, "scratch", m, g, plan, ref.Records, 4)
	res := results["snapshot"]
	if len(res.Records) != len(ref.Records) {
		t.Fatalf("snapshot: %d records, want %d", len(res.Records), len(ref.Records))
	}
	for i := range ref.Records {
		if res.Records[i] != ref.Records[i] {
			t.Fatalf("snapshot: record %d = %+v, want %+v", i, res.Records[i], ref.Records[i])
		}
	}
	for s := 0; s < plan.NumShards(); s++ {
		lo, hi := plan.ShardRange(s)
		mk := func(r *Result) []RunRec {
			recs := make([]RunRec, 0, hi-lo)
			for i := lo; i < hi; i++ {
				recs = append(recs, NewRunRec(i, r.Records[i]))
			}
			return recs
		}
		if got, want := ShardHash(plan.ID, s, mk(res)), ShardHash(plan.ID, s, mk(ref)); got != want {
			t.Fatalf("shard %d hash %s, want %s", s, got, want)
		}
	}
}

// buildWideModule builds a straight-line main with more SSA values than
// the VM's 16384-slot register file holds, so vm.Compile rejects it.
func buildWideModule(n int) *ir.Module {
	b := ir.NewBuilder("wide")
	b.NewFunc("main", ir.Void)
	v := ir.Value(ir.ConstInt(ir.I32, 1))
	for i := 0; i < n; i++ {
		v = b.Add(v, ir.ConstInt(ir.I32, 3))
	}
	b.Output(v)
	b.Ret(nil)
	return b.MustModule()
}

// TestUncompilableModuleRunsOnWalker: a module the VM cannot compile
// still completes a campaign — every run from scratch on the walker,
// snapshots reported off — with records equal to fi.RunOne's.
func TestUncompilableModuleRunsOnWalker(t *testing.T) {
	m := buildWideModule(1 << 14)
	if _, err := vm.Compile(m, vm.Options{}); err == nil {
		t.Fatal("vm.Compile accepted a module wider than the register file")
	}
	g, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := noJitterPlan(t, g, 24, 12)

	r, err := fi.NewRunner(m, g, plan.FIConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := r.EnableSnapshots(snapshot.Config{}); ok || err != nil {
		t.Fatalf("EnableSnapshots = %v, %v; want false, nil", ok, err)
	}
	if v := r.SnapshotView(); v != nil {
		t.Fatalf("SnapshotView = %+v, want nil", v)
	}

	mon := NewMonitor(nil)
	res, err := Run(context.Background(), m, g, plan, RunOptions{Workers: 2, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || int64(len(res.Records)) != plan.Runs {
		t.Fatalf("campaign incomplete: complete=%v, %d records", res.Complete, len(res.Records))
	}
	st, err := mon.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot != nil {
		t.Fatalf("status reports snapshots %+v for a walker-only module", st.Snapshot)
	}
	sameAsWalker(t, "wide", m, g, plan, res.Records, 1)
}
