package snapshot

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/vm"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lang.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return m
}

func program(t *testing.T, m *ir.Module) *vm.Program {
	t.Helper()
	p, err := vm.Compile(m, vm.Options{})
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	return p
}

// resumeVsScratch resumes the nearest chain snapshot on the VM with
// convergence on and compares the run against a from-scratch walker run
// (the reference semantics) with the same injection: outputs, exception,
// hang flag, final event position and injection bookkeeping. It returns
// the resumed result for accounting.
func resumeVsScratch(m *ir.Module, p *vm.Program, ch *Chain, golden *interp.Result, maxDyn, event int64, bit int) (*interp.Result, error) {
	want := &interp.Injection{Event: event, Bit: bit}
	scratch, err := interp.Run(m, interp.Config{MaxDynInstrs: maxDyn, Injection: want})
	if err != nil {
		return nil, fmt.Errorf("scratch: %v", err)
	}
	got := &interp.Injection{Event: event, Bit: bit}
	res, err := p.Resume(ch.Nearest(event), vm.ResumeOptions{
		Injection:   got,
		Convergence: &vm.Convergence{Golden: golden, Next: ch.Next},
	})
	if err != nil {
		return nil, fmt.Errorf("resume: %v", err)
	}
	label := fmt.Sprintf("event %d bit %d", event, bit)
	switch {
	case res.Hang != scratch.Hang || res.DynInstrs != scratch.DynInstrs:
		return nil, fmt.Errorf("%s: hang/dyn = (%v,%d), want (%v,%d)",
			label, res.Hang, res.DynInstrs, scratch.Hang, scratch.DynInstrs)
	case (res.Exception == nil) != (scratch.Exception == nil):
		return nil, fmt.Errorf("%s: exception = %v, want %v", label, res.Exception, scratch.Exception)
	case res.Exception != nil && (res.Exception.Kind != scratch.Exception.Kind ||
		res.Exception.DynIdx != scratch.Exception.DynIdx || res.Exception.Addr != scratch.Exception.Addr):
		return nil, fmt.Errorf("%s: exception = %+v, want %+v", label, res.Exception, scratch.Exception)
	case *got != *want:
		return nil, fmt.Errorf("%s: injection = %+v, want %+v", label, *got, *want)
	case len(res.Outputs) != len(scratch.Outputs):
		return nil, fmt.Errorf("%s: %d outputs, want %d", label, len(res.Outputs), len(scratch.Outputs))
	}
	for i := range scratch.Outputs {
		if res.Outputs[i] != scratch.Outputs[i] {
			return nil, fmt.Errorf("%s: output %d = %+v, want %+v", label, i, res.Outputs[i], scratch.Outputs[i])
		}
	}
	return res, nil
}

const loopSrc = `
int f(int x) { return x * 3 + 1; }
int main() {
  int arr[8];
  int i = 0; int sum = 0;
  while (i < 300) {
    int t = f(i);
    arr[i % 8] = t;
    sum = sum + t;
    i = i + 1;
  }
  output(sum);
  output(arr[3]);
  return 0;
}
`

func TestChainInvariants(t *testing.T) {
	m := compile(t, loopSrc)
	cfg := interp.Config{MaxDynInstrs: 1 << 20}
	golden, err := interp.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChain(program(t, m), cfg, golden.DynInstrs, Config{Stride: 100})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Stride() != 100 {
		t.Fatalf("stride = %d", ch.Stride())
	}
	prevLen := ch.Len()
	if prevLen != 1 {
		t.Fatalf("fresh chain has %d snapshots, want 1 (event 0)", prevLen)
	}
	for _, event := range []int64{0, 1, 99, 100, 101, 555, golden.DynInstrs - 1} {
		st := ch.Nearest(event)
		if st.Event() > event {
			t.Fatalf("Nearest(%d) = %d, above the event", event, st.Event())
		}
		if event-st.Event() >= 2*ch.Stride() {
			t.Fatalf("Nearest(%d) = %d, more than two strides below", event, st.Event())
		}
	}
	// Lazy: asking for an early event again must not extend further.
	grown := ch.Len()
	ch.Nearest(0)
	if ch.Len() != grown {
		t.Fatal("Nearest(0) extended the chain")
	}
	// Next walks strictly forward and ends with nil.
	var last int64 = -1
	for n := 0; ; n++ {
		st := ch.Next(last)
		if st == nil {
			break
		}
		if st.Event() <= last {
			t.Fatalf("Next(%d) = %d, not strictly above", last, st.Event())
		}
		last = st.Event()
		if n > 10000 {
			t.Fatal("Next never terminated")
		}
	}
	if last >= golden.DynInstrs {
		t.Fatalf("snapshot at %d past the program end %d", last, golden.DynInstrs)
	}
	v := ch.View()
	if v.Captures != int64(ch.Len()) || !v.Enabled || v.Stride != 100 {
		t.Fatalf("View = %+v", v)
	}
}

func TestStrideCapAndAuto(t *testing.T) {
	if s := AutoStride(100); s != MinStride {
		t.Fatalf("AutoStride(100) = %d, want %d", s, MinStride)
	}
	if s := AutoStride(1 << 20); s != 1024 {
		t.Fatalf("AutoStride(1M) = %d, want 1024", s)
	}
	m := compile(t, loopSrc)
	golden, err := interp.Run(m, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChain(program(t, m), interp.Config{}, golden.DynInstrs, Config{Stride: 1, MaxSnapshots: 5})
	if err != nil {
		t.Fatal(err)
	}
	ch.Nearest(golden.DynInstrs) // force full extension
	if n := ch.Len(); n > 6 {
		t.Fatalf("cap ignored: %d snapshots", n)
	}
}

// genProgram emits a random lang program: loops over arrays with data
// movement through helpers, conditionals, and outputs. Deterministic under
// seed.
func genProgram(rng *rand.Rand) string {
	n := 50 + rng.Intn(200)
	mod := 4 + rng.Intn(8)
	mul := 1 + rng.Intn(9)
	add := rng.Intn(100)
	var b strings.Builder
	fmt.Fprintf(&b, "int f(int x) { return x * %d + %d; }\n", mul, add)
	fmt.Fprintf(&b, "int g(int x) { if (x < %d) { return x + 1; } return x - f(x %% 7); }\n", rng.Intn(50))
	b.WriteString("int main() {\n")
	fmt.Fprintf(&b, "  int arr[%d];\n", mod)
	fmt.Fprintf(&b, "  int i = 0; int acc = %d;\n", rng.Intn(10))
	fmt.Fprintf(&b, "  while (i < %d) {\n", n)
	fmt.Fprintf(&b, "    int t = f(i) ^ g(acc %% 31);\n")
	fmt.Fprintf(&b, "    arr[i %% %d] = t;\n", mod)
	switch rng.Intn(3) {
	case 0:
		fmt.Fprintf(&b, "    if (t %% 5 == 0) { acc = acc + arr[(i + 1) %% %d]; } else { acc = acc ^ t; }\n", mod)
	case 1:
		fmt.Fprintf(&b, "    acc = acc + (t >> 2) - arr[t %% %d & %d];\n", mod, mod-1)
	default:
		fmt.Fprintf(&b, "    acc = (acc << 1) ^ arr[i %% %d];\n", mod)
	}
	b.WriteString("    i = i + 1;\n  }\n")
	fmt.Fprintf(&b, "  int j = 0;\n  while (j < %d) { output(arr[j]); j = j + 1; }\n", mod)
	b.WriteString("  output(acc);\n  return 0;\n}\n")
	return b.String()
}

// TestPropertyResumedRunsBitIdentical is the core differential property:
// for randomized lang programs and random injection targets, a VM run
// resumed from the nearest chain snapshot (with convergence enabled) is
// bit-identical to a from-scratch walker run — same outputs, exception,
// hang flag, final event position and injection bookkeeping.
func TestPropertyResumedRunsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	programs := 6
	if testing.Short() {
		programs = 2
	}
	for p := 0; p < programs; p++ {
		src := genProgram(rng)
		m := compile(t, src)
		cfg := interp.Config{MaxDynInstrs: 1 << 22}
		golden, err := interp.Run(m, cfg)
		if err != nil {
			t.Fatalf("golden: %v\n%s", err, src)
		}
		if golden.Exception != nil || golden.Hang {
			t.Fatalf("golden run not clean: %+v\n%s", golden, src)
		}
		prog := program(t, m)
		ch, err := NewChain(prog, cfg, golden.DynInstrs, Config{Stride: 50 + int64(rng.Intn(200))})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			event := rng.Int63n(golden.DynInstrs)
			bit := rng.Intn(32)
			got, err := resumeVsScratch(m, prog, ch, golden, cfg.MaxDynInstrs, event, bit)
			if err != nil {
				t.Fatalf("program %d trial %d: %v\n%s", p, trial, err, src)
			}
			ch.NoteRestore(got)
		}
		v := ch.View()
		if v.Restores != 30 {
			t.Fatalf("restores = %d, want 30", v.Restores)
		}
		if v.ReplayedEvents+v.SkippedEvents == 0 {
			t.Fatal("no events accounted")
		}
	}
}

// TestConcurrentNearestResume hammers one chain from many goroutines under
// -race: lazy extension, concurrent state forks, and stats updates. Every
// resumed run must still equal its from-scratch walker run.
func TestConcurrentNearestResume(t *testing.T) {
	m := compile(t, loopSrc)
	cfg := interp.Config{MaxDynInstrs: 1 << 20}
	golden, err := interp.Run(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := program(t, m)
	ch, err := NewChain(prog, cfg, golden.DynInstrs, Config{Stride: 64})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for trial := 0; trial < 20; trial++ {
				event := rng.Int63n(golden.DynInstrs)
				res, err := resumeVsScratch(m, prog, ch, golden, cfg.MaxDynInstrs, event, rng.Intn(16))
				if err != nil {
					done <- err
					return
				}
				ch.NoteRestore(res)
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if v := ch.View(); v.Restores != 160 {
		t.Fatalf("restores = %d", v.Restores)
	}
}
