package vm_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/vm"
)

func openTestStore(t *testing.T) *cache.Store {
	t.Helper()
	s, err := cache.Open(cache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("cache open: %v", err)
	}
	return s
}

func mustBench(t *testing.T, name string) *bench.Benchmark {
	t.Helper()
	b, ok := bench.Get(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return b
}

// resumeVsScratch resumes st on the VM and runs the same injection from
// scratch on the walker (the reference semantics), each with its own
// injection copy, and asserts identical outcomes and bookkeeping.
func resumeVsScratch(t *testing.T, name string, prog *vm.Program, st *vm.State, cfg interp.Config, inj interp.Injection, conv *vm.Convergence) *interp.Result {
	t.Helper()
	wi, vi := inj, inj
	scfg := cfg
	scfg.Injection = &wi
	walker, err := interp.Run(prog.Module(), scfg)
	if err != nil {
		t.Fatalf("%s: scratch: %v", name, err)
	}
	res, err := prog.Resume(st, vm.ResumeOptions{Injection: &vi, Convergence: conv})
	if err != nil {
		t.Fatalf("%s: resume: %v", name, err)
	}
	if walker.Hang != res.Hang || walker.DynInstrs != res.DynInstrs {
		t.Fatalf("%s: outcome mismatch: walker hang=%v dyn=%d, vm hang=%v dyn=%d",
			name, walker.Hang, walker.DynInstrs, res.Hang, res.DynInstrs)
	}
	diffExc(t, name, walker.Exception, res.Exception)
	diffOutputs(t, name, walker.Outputs, res.Outputs)
	if wi != vi {
		t.Fatalf("%s: injection bookkeeping mismatch: walker=%+v vm=%+v", name, wi, vi)
	}
	return res
}

// TestDifferentialResume captures golden snapshots on the VM and replays
// injected runs from them — the exact fi hot path — asserting each is
// bit-identical to a from-scratch walker run with the same injection,
// with and without convergence.
func TestDifferentialResume(t *testing.T) {
	m := mustBench(t, "mm").MustModule(1)
	cfg := interp.Config{}
	golden, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	total := golden.Trace.NumEvents()
	prog, err := vm.Compile(m, vm.Options{})
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	chain, err := snapshot.NewChain(prog, cfg, total, snapshot.Config{Stride: total / 7})
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	scratch, err := interp.Run(m, cfg)
	if err != nil {
		t.Fatalf("scratch golden: %v", err)
	}
	conv := &vm.Convergence{Golden: scratch, Next: chain.Next}

	rng := rand.New(rand.NewSource(7))
	converged := 0
	for trial := 0; trial < 120; trial++ {
		ev := rng.Int63n(total)
		w := trace.DefWidth(golden.Trace.Instr(ev))
		if w == 0 {
			continue
		}
		st := chain.Nearest(ev)
		inj := interp.Injection{Event: ev, Bit: rng.Intn(w)}
		name := fmt.Sprintf("ev%d/bit%d/from%d", ev, inj.Bit, st.Event())
		resumeVsScratch(t, name, prog, st, cfg, inj, nil)
		if resumeVsScratch(t, name+"/conv", prog, st, cfg, inj, conv).Converged {
			converged++
		}
	}
	if converged == 0 {
		t.Fatal("no injected run converged: the fast-forward path went unexercised")
	}
}

const sumLoopSrc = `void main() {
	int s = 0;
	for (int i = 0; i < 50; i = i + 1) { s = s + i; }
	output(s);
}`

// capturedAt compiles src and captures its VM state near event stop.
func capturedAt(t *testing.T, name, src string, stop int64) (*vm.Program, *vm.State) {
	t.Helper()
	m, err := lang.Compile(name, src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prog, err := vm.Compile(m, vm.Options{})
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	ex, err := prog.NewExec(interp.Config{})
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	if !ex.Advance(stop) {
		t.Fatalf("program ended before event %d", stop)
	}
	return prog, ex.Capture()
}

// TestResumeCrossModule proves that resuming a state captured from one
// program on a program compiled from another module fails cleanly before
// any execution, and leaves the state usable afterwards.
func TestResumeCrossModule(t *testing.T) {
	progA, st := capturedAt(t, "a", sumLoopSrc, 40)
	progB, _ := capturedAt(t, "b", sumLoopSrc, 40)
	if _, err := progB.Resume(st, vm.ResumeOptions{}); err == nil ||
		!strings.Contains(err.Error(), "captured from module") {
		t.Fatalf("cross-module resume: want a module-mismatch error, got %v", err)
	}
	want, err := interp.Run(progA.Module(), interp.Config{})
	if err != nil {
		t.Fatalf("walker run: %v", err)
	}
	for i := 0; i < 2; i++ { // twice: the resumes themselves must not corrupt st either
		res, err := progA.Resume(st, vm.ResumeOptions{})
		if err != nil {
			t.Fatalf("resume after failed cross-module resume: %v", err)
		}
		diffOutputs(t, "cross-module", want.Outputs, res.Outputs)
	}
}

// TestResumeInjectionBeforeSnapshot: an injection event earlier than the
// capture event already executed, uncorrupted, inside the snapshot; it is
// a caller bug and must be rejected.
func TestResumeInjectionBeforeSnapshot(t *testing.T) {
	prog, st := capturedAt(t, "t", sumLoopSrc, 40)
	_, err := prog.Resume(st, vm.ResumeOptions{Injection: &interp.Injection{Event: st.Event() - 1}})
	if err == nil || !strings.Contains(err.Error(), "precedes snapshot event") {
		t.Fatalf("want a precedes-snapshot error, got %v", err)
	}
	if _, err := prog.Resume(st, vm.ResumeOptions{Injection: &interp.Injection{Event: st.Event()}}); err != nil {
		t.Fatalf("injection at the capture event: %v", err)
	}
}
