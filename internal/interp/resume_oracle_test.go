package interp_test

// Stepwise execution and snapshot resume live in the bytecode VM
// (internal/vm); this package's from-scratch Run is their reference
// semantics. Every test here captures VM states, resumes them, and
// compares against interp.Run with the same configuration and injection.

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/vm"
)

// buildLoopCall builds a loop of n iterations that calls a helper, stores
// into a stack array, and emits outputs — phi groups, calls, loads and
// stores all cross snapshot boundaries.
func buildLoopCall(n int64) *ir.Module {
	b := ir.NewBuilder("loopcall")
	f := b.NewFunc("f", ir.I32, &ir.Param{Name: "x", Ty: ir.I32})
	x := f.Params[0]
	b.Ret(b.Add(b.Mul(x, ir.ConstInt(ir.I32, 3)), ir.ConstInt(ir.I32, 1)))

	b.NewFunc("main", ir.Void)
	entry := b.CurBlock()
	arr := b.Alloca(ir.I32, 8)
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(body)

	b.SetBlock(body)
	i := b.Phi(ir.I32)
	sum := b.Phi(ir.I32)
	b.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	b.AddIncoming(sum, ir.ConstInt(ir.I32, 0), entry)
	fv := b.Call(f, i)
	sum2 := b.Add(sum, fv)
	slot := b.GEP(arr, b.SRem(i, ir.ConstInt(ir.I32, 8)))
	b.Store(sum2, slot)
	i2 := b.Add(i, ir.ConstInt(ir.I32, 1))
	b.AddIncoming(i, i2, body)
	b.AddIncoming(sum, sum2, body)
	b.CondBr(b.ICmp(ir.ISLT, i2, ir.ConstInt(ir.I32, n)), body, exit)

	b.SetBlock(exit)
	b.Output(sum2)
	b.Output(b.Load(b.GEP(arr, ir.ConstInt(ir.I32, 3))))
	b.Ret(nil)
	return b.MustModule()
}

// buildTempStore builds a loop whose per-iteration temporary is stored
// into a 4-slot ring; every register and every slot is overwritten within
// a few iterations, so an early fault's footprint washes out — the
// convergence fast-forward test bed.
func buildTempStore(n int64) *ir.Module {
	b := ir.NewBuilder("tempstore")
	f := b.NewFunc("f", ir.I32, &ir.Param{Name: "x", Ty: ir.I32})
	b.Ret(b.Add(b.Mul(f.Params[0], ir.ConstInt(ir.I32, 5)), ir.ConstInt(ir.I32, 7)))

	b.NewFunc("main", ir.Void)
	entry := b.CurBlock()
	arr := b.Alloca(ir.I32, 4)
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(body)

	b.SetBlock(body)
	i := b.Phi(ir.I32)
	b.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	t := b.Call(f, i)
	b.Store(t, b.GEP(arr, b.SRem(i, ir.ConstInt(ir.I32, 4))))
	i2 := b.Add(i, ir.ConstInt(ir.I32, 1))
	b.AddIncoming(i, i2, body)
	b.CondBr(b.ICmp(ir.ISLT, i2, ir.ConstInt(ir.I32, n)), body, exit)

	b.SetBlock(exit)
	for k := int64(0); k < 4; k++ {
		b.Output(b.Load(b.GEP(arr, ir.ConstInt(ir.I32, k))))
	}
	b.Ret(nil)
	return b.MustModule()
}

// buildDivCrash runs a short loop and then divides by zero.
func buildDivCrash(n int64) *ir.Module {
	b := ir.NewBuilder("divcrash")
	b.NewFunc("main", ir.Void)
	entry := b.CurBlock()
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(body)
	b.SetBlock(body)
	i := b.Phi(ir.I32)
	b.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	i2 := b.Add(i, ir.ConstInt(ir.I32, 1))
	b.AddIncoming(i, i2, body)
	b.CondBr(b.ICmp(ir.ISLT, i2, ir.ConstInt(ir.I32, n)), body, exit)
	b.SetBlock(exit)
	zero := b.Sub(i2, i2)
	b.Output(b.SDiv(ir.ConstInt(ir.I32, 100), zero))
	b.Ret(nil)
	return b.MustModule()
}

// buildFib builds naive recursive fib(m) — deep call stacks under capture.
func buildFib(m int64) *ir.Module {
	b := ir.NewBuilder("fib")
	fib := b.NewFunc("fib", ir.I32, &ir.Param{Name: "n", Ty: ir.I32})
	n := fib.Params[0]
	rec := b.NewBlock("rec")
	base := b.NewBlock("base")
	b.CondBr(b.ICmp(ir.ISLT, n, ir.ConstInt(ir.I32, 2)), base, rec)
	b.SetBlock(base)
	b.Ret(n)
	b.SetBlock(rec)
	a := b.Call(fib, b.Sub(n, ir.ConstInt(ir.I32, 1)))
	c := b.Call(fib, b.Sub(n, ir.ConstInt(ir.I32, 2)))
	b.Ret(b.Add(a, c))

	b.NewFunc("main", ir.Void)
	b.Output(b.Call(fib, ir.ConstInt(ir.I32, m)))
	b.Ret(nil)
	return b.MustModule()
}

// compileVM verifies m and compiles it to bytecode.
func compileVM(t *testing.T, m *ir.Module) *vm.Program {
	t.Helper()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	p, err := vm.Compile(m, vm.Options{})
	if err != nil {
		t.Fatalf("%s: vm compile: %v", m.Name, err)
	}
	return p
}

// sameRunResult compares every observable field of two results.
func sameRunResult(t *testing.T, label string, want, got *interp.Result) {
	t.Helper()
	if got.Hang != want.Hang {
		t.Errorf("%s: Hang = %v, want %v", label, got.Hang, want.Hang)
	}
	if got.DynInstrs != want.DynInstrs {
		t.Errorf("%s: DynInstrs = %d, want %d", label, got.DynInstrs, want.DynInstrs)
	}
	if (got.Exception == nil) != (want.Exception == nil) {
		t.Fatalf("%s: Exception = %v, want %v", label, got.Exception, want.Exception)
	}
	if got.Exception != nil {
		ge, we := got.Exception, want.Exception
		if ge.Kind != we.Kind || ge.Addr != we.Addr || ge.DynIdx != we.DynIdx || ge.Instr != we.Instr {
			t.Errorf("%s: Exception = %+v, want %+v", label, ge, we)
		}
	}
	if len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("%s: %d outputs, want %d", label, len(got.Outputs), len(want.Outputs))
	}
	for i := range want.Outputs {
		if got.Outputs[i] != want.Outputs[i] {
			t.Errorf("%s: output %d = %+v, want %+v", label, i, got.Outputs[i], want.Outputs[i])
		}
	}
}

// captureEvery advances a VM Exec capturing a state every stride events
// until the program ends; includes the event-0 state.
func captureEvery(t *testing.T, p *vm.Program, cfg interp.Config, stride int64) []*vm.State {
	t.Helper()
	ex, err := p.NewExec(cfg)
	if err != nil {
		t.Fatalf("NewExec: %v", err)
	}
	states := []*vm.State{ex.Capture()}
	for cursor := stride; ; cursor += stride {
		live := ex.Advance(cursor)
		if err := ex.Err(); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		if !live {
			break
		}
		if ex.Event() > states[len(states)-1].Event() {
			states = append(states, ex.Capture())
		}
	}
	return states
}

func nearestState(states []*vm.State, event int64) *vm.State {
	best := states[0]
	for _, st := range states {
		if st.Event() <= event && st.Event() > best.Event() {
			best = st
		}
	}
	return best
}

// nextAfter serves states as convergence checkpoints.
func nextAfter(states []*vm.State) func(int64) *vm.State {
	return func(after int64) *vm.State {
		for _, st := range states {
			if st.Event() > after {
				return st
			}
		}
		return nil
	}
}

func TestResumeNoInjectionMatchesScratch(t *testing.T) {
	for _, m := range []*ir.Module{buildLoopCall(150), buildFib(12), buildDivCrash(40)} {
		p := compileVM(t, m)
		cfg := interp.Config{MaxDynInstrs: 1 << 20}
		want, err := interp.Run(m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		states := captureEvery(t, p, cfg, 37)
		if len(states) < 3 {
			t.Fatalf("%s: only %d states captured", m.Name, len(states))
		}
		for _, st := range states {
			got, err := p.Resume(st, vm.ResumeOptions{})
			if err != nil {
				t.Fatalf("%s: Resume@%d: %v", m.Name, st.Event(), err)
			}
			sameRunResult(t, m.Name, want, got)
			if wantExec := want.DynInstrs - st.Event(); got.Executed != wantExec {
				t.Errorf("%s@%d: Executed = %d, want %d", m.Name, st.Event(), got.Executed, wantExec)
			}
		}
	}
}

func TestResumeWithInjectionMatchesScratch(t *testing.T) {
	for _, m := range []*ir.Module{buildLoopCall(120), buildTempStore(100), buildFib(11), buildDivCrash(50)} {
		p := compileVM(t, m)
		cfg := interp.Config{MaxDynInstrs: 1 << 20}
		golden, err := interp.Run(m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		states := captureEvery(t, p, cfg, 23)
		total := golden.DynInstrs
		for _, event := range []int64{0, 1, total / 4, total / 2, total - 2, total - 1} {
			for _, bit := range []int{0, 3, 17} {
				want := &interp.Injection{Event: event, Bit: bit}
				scratch, err := interp.Run(m, interp.Config{MaxDynInstrs: cfg.MaxDynInstrs, Injection: want})
				if err != nil {
					t.Fatalf("%s: scratch: %v", m.Name, err)
				}
				got := &interp.Injection{Event: event, Bit: bit}
				res, err := p.Resume(nearestState(states, event), vm.ResumeOptions{Injection: got})
				if err != nil {
					t.Fatalf("%s: Resume: %v", m.Name, err)
				}
				sameRunResult(t, m.Name+"/resume", scratch, res)
				if *got != *want {
					t.Errorf("%s: injection = %+v, want %+v", m.Name, *got, *want)
				}
			}
		}
	}
}

func TestResumeHangMatchesScratch(t *testing.T) {
	m := buildLoopCall(1000)
	p := compileVM(t, m)
	cfg := interp.Config{MaxDynInstrs: 500} // budget exhausts mid-loop
	want, err := interp.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Hang {
		t.Fatal("expected scratch run to hang")
	}
	for _, st := range captureEvery(t, p, cfg, 101) {
		got, err := p.Resume(st, vm.ResumeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameRunResult(t, "hang", want, got)
	}
}

func TestConvergenceFastForward(t *testing.T) {
	m := buildTempStore(400)
	p := compileVM(t, m)
	cfg := interp.Config{MaxDynInstrs: 1 << 20}
	golden, err := interp.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	goldenRec, err := interp.Run(m, interp.Config{MaxDynInstrs: 1 << 20, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	// Target an early call result (the per-iteration temp): its register and
	// the ring slot it lands in are overwritten within four iterations, so
	// the fault is benign and the state re-joins the golden path.
	var event int64 = -1
	calls := 0
	for i := int64(0); i < goldenRec.Trace.NumEvents(); i++ {
		if goldenRec.Trace.Instr(i).Op == ir.OpCall {
			calls++
			if calls == 10 {
				event = i
				break
			}
		}
	}
	if event < 0 {
		t.Fatal("no call event found")
	}
	states := captureEvery(t, p, cfg, 50)
	scratch, err := interp.Run(m, interp.Config{MaxDynInstrs: cfg.MaxDynInstrs, Injection: &interp.Injection{Event: event, Bit: 3}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Resume(nearestState(states, event), vm.ResumeOptions{
		Injection:   &interp.Injection{Event: event, Bit: 3},
		Convergence: &vm.Convergence{Golden: golden, Next: nextAfter(states)},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameRunResult(t, "converge", scratch, got)
	if !got.Converged {
		t.Fatal("run did not converge")
	}
	if got.Executed >= scratch.Executed/2 {
		t.Errorf("converged run executed %d of %d events — no fast-forward win",
			got.Executed, scratch.Executed)
	}
}

// TestConvergenceNeverFiresBeforeInjection guards the soundness trap: a
// resumed run that has not yet applied its fault is the golden prefix and
// must not be spliced to the golden tail (it would skip the injection).
func TestConvergenceNeverFiresBeforeInjection(t *testing.T) {
	m := buildTempStore(300)
	p := compileVM(t, m)
	cfg := interp.Config{MaxDynInstrs: 1 << 20}
	golden, err := interp.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	states := captureEvery(t, p, cfg, 40)
	// Inject near the end; resume from event 0 so many golden checkpoints
	// are crossed before the fault applies.
	event := golden.DynInstrs - 3
	scratch, err := interp.Run(m, interp.Config{MaxDynInstrs: cfg.MaxDynInstrs, Injection: &interp.Injection{Event: event, Bit: 1}})
	if err != nil {
		t.Fatal(err)
	}
	inj := &interp.Injection{Event: event, Bit: 1}
	got, err := p.Resume(states[0], vm.ResumeOptions{
		Injection:   inj,
		Convergence: &vm.Convergence{Golden: golden, Next: nextAfter(states)},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameRunResult(t, "late-inject", scratch, got)
	if !inj.Applied {
		t.Fatal("the injection never applied")
	}
}

func TestResumeRejectsEarlierInjection(t *testing.T) {
	m := buildLoopCall(60)
	p := compileVM(t, m)
	states := captureEvery(t, p, interp.Config{}, 100)
	late := states[len(states)-1]
	if late.Event() == 0 {
		t.Fatal("no late state")
	}
	if _, err := p.Resume(late, vm.ResumeOptions{Injection: &interp.Injection{Event: late.Event() - 1}}); err == nil {
		t.Fatal("Resume accepted injection before snapshot event")
	}
}

func TestExecRejectsRecordAndInjection(t *testing.T) {
	p := compileVM(t, buildLoopCall(10))
	if _, err := p.NewExec(interp.Config{Record: true}); err == nil {
		t.Fatal("NewExec accepted Record mode")
	}
	if _, err := p.NewExec(interp.Config{Injection: &interp.Injection{Event: 1}}); err == nil {
		t.Fatal("NewExec accepted an injection")
	}
}

// TestAdvancePausesAtOrBelowStop checks the pause rule: Advance stops
// before the first dispatch that would retire an event past stop. In
// loopcall no dispatch retires more than two events (a fused pair or the
// two-phi group), so every pause lands on stop or one below it.
func TestAdvancePausesAtOrBelowStop(t *testing.T) {
	p := compileVM(t, buildLoopCall(80))
	ex, err := p.NewExec(interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(0)
	pauses := 0
	for stop := int64(10); ex.Advance(stop); stop += 10 {
		if ex.Event() > stop || ex.Event() < stop-1 {
			t.Fatalf("paused at %d for stop %d", ex.Event(), stop)
		}
		if ex.Event() < prev {
			t.Fatalf("event went backwards: %d -> %d", prev, ex.Event())
		}
		prev = ex.Event()
		if st := ex.Capture(); st.Event() != ex.Event() {
			t.Fatalf("capture event %d != exec event %d", st.Event(), ex.Event())
		}
		pauses++
	}
	if pauses < 10 {
		t.Fatalf("only %d pauses", pauses)
	}
}
