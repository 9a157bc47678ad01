package vm

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/ir"
)

var updateCodecCorpus = flag.Bool("update-corpus", false, "rewrite the FuzzDecodeFnCode seed corpus in testdata/fuzz/FuzzDecodeFnCode")

// codecKernels are the benchmark kernels whose compiled main functions
// seed FuzzDecodeFnCode.
var codecKernels = []string{"mm", "lud"}

var (
	codecProgsOnce sync.Once
	codecProgs     []*Program
	codecProgsErr  error
)

// codecProgram returns the compiled fuzz kernel k (modulo the kernel
// count), compiled without a cache.
func codecProgram(t testing.TB, k uint8) *Program {
	codecProgsOnce.Do(func() {
		for _, name := range codecKernels {
			b, ok := bench.Get(name)
			if !ok {
				codecProgsErr = fmt.Errorf("unknown benchmark %q", name)
				return
			}
			m, err := b.Module(1)
			if err == nil {
				var p *Program
				if p, err = Compile(m, Options{}); err == nil {
					codecProgs = append(codecProgs, p)
					continue
				}
			}
			codecProgsErr = err
			return
		}
	})
	if codecProgsErr != nil {
		t.Fatal(codecProgsErr)
	}
	return codecProgs[int(k)%len(codecProgs)]
}

// withFn returns a copy of p whose main function body is fc, linked the
// way Compile links.
func withFn(p *Program, fc *fnCode) *Program {
	q := *p
	q.fns = append([]*fnCode(nil), p.fns...)
	q.fns[p.fnIdx[fc.fn]] = fc
	for i := range fc.callTab {
		fc.callTab[i].fnIdx = p.fnIdx[fc.callTab[i].callee]
	}
	return &q
}

// FuzzDecodeFnCode feeds arbitrary bytes to decodeFnCode as the cached
// body of a kernel's main. The decoder must reject what it cannot vouch
// for with an error; a body it accepts must execute — recording a trace,
// under a small event budget — without panicking.
func FuzzDecodeFnCode(f *testing.F) {
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		p := codecProgram(t, k)
		fc, err := decodeFnCode(p.mod.Func("main"), data)
		if err != nil {
			return
		}
		_, _ = withFn(p, fc).Run(interp.Config{MaxDynInstrs: 20000, Record: true})
	})
}

// codecCorpusEntry is one committed FuzzDecodeFnCode seed and what the
// decoder must make of it: accept it, or reject it with an error
// containing reject.
type codecCorpusEntry struct {
	name   string
	kernel uint8
	reject string
	data   func(t *testing.T) []byte
}

// mainEntry returns the encoded main of fuzz kernel k.
func mainEntry(t *testing.T, k uint8) []byte {
	p := codecProgram(t, k)
	return encodeFnCode(p.fns[p.fnIdx[p.mod.Func("main")]])
}

var codecCorpus = []codecCorpusEntry{
	{name: "mm-main", kernel: 0, data: func(t *testing.T) []byte { return mainEntry(t, 0) }},
	{name: "lud-main", kernel: 1, data: func(t *testing.T) []byte { return mainEntry(t, 1) }},
	{name: "truncated", kernel: 1, reject: "truncated", data: func(t *testing.T) []byte {
		b := mainEntry(t, 1)
		return b[:len(b)/2]
	}},
	{name: "slot-out-of-range", kernel: 0, reject: "slot out of range", data: func(t *testing.T) []byte {
		// Re-encode mm's main with the first code word's a operand
		// pointing at the last slot of the 14-bit field, far past the
		// function's register file.
		p := codecProgram(t, 0)
		fc := *p.fns[p.fnIdx[p.mod.Func("main")]]
		fc.code = append([]uint64(nil), fc.code...)
		fc.code[0] |= uint64(maxSlots-1) << 28
		return encodeFnCode(&fc)
	}},
}

// TestFuzzDecodeFnCodeCorpus checks that decodeFnCode accepts both
// kernel seeds — and that the decoded bodies run bit-identically to the
// compiled ones — and rejects the truncated and out-of-range seeds. With
// -update-corpus it first rewrites the seeds from the current encoding.
func TestFuzzDecodeFnCodeCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFnCode")
	for _, e := range codecCorpus {
		path := filepath.Join(dir, e.name)
		if *updateCodecCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf("go test fuzz v1\nuint8(%d)\n[]byte(%q)\n", e.kernel, e.data(t))
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		k, data := readCodecCorpusFile(t, path)
		p := codecProgram(t, k)
		fc, err := decodeFnCode(p.mod.Func("main"), data)
		switch {
		case e.reject == "" && err != nil:
			t.Errorf("%s: decode rejected an encoded body: %v", e.name, err)
		case e.reject != "" && err == nil:
			t.Errorf("%s: decode accepted a bad entry", e.name)
		case e.reject != "" && !strings.Contains(err.Error(), e.reject):
			t.Errorf("%s: decode error %q, want one containing %q", e.name, err, e.reject)
		case e.reject == "":
			want, werr := p.Run(interp.Config{Record: true})
			got, gerr := withFn(p, fc).Run(interp.Config{Record: true})
			if werr != nil || gerr != nil {
				t.Fatalf("%s: runs failed: compiled %v, decoded %v", e.name, werr, gerr)
			}
			if got.DynInstrs != want.DynInstrs || !sameOutputBits(got, want) ||
				got.Trace.NumEvents() != want.Trace.NumEvents() {
				t.Errorf("%s: decoded body ran differently from the compiled one", e.name)
			}
		}
	}
}

func sameOutputBits(a, b *interp.Result) bool {
	if len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			return false
		}
	}
	return true
}

// TestDecodeRejectsBadTables breaks, one at a time, the references the
// dispatch loop follows without a bounds check of its own, in an
// otherwise well-formed body, and requires decodeFnCode to reject each.
func TestDecodeRejectsBadTables(t *testing.T) {
	p, err := Compile(phiCallModule(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := p.fns[p.fnIdx[p.mod.Func("main")]]
	firstOp := func(fc *fnCode, op vop) int {
		for pc := 0; pc < len(fc.code); pc += 2 {
			if vop(fc.code[pc]>>56) == op {
				return pc
			}
		}
		t.Fatalf("main has no %d op", op)
		return 0
	}
	tests := []struct {
		name string
		edit func(fc *fnCode)
	}{
		{"block pc", func(fc *fnCode) { fc.blockPC[0] = int32(len(fc.code)) }},
		{"odd block pc", func(fc *fnCode) { fc.blockPC[0] = 1 }},
		{"branch target", func(fc *fnCode) { fc.brTab[0].pc = int32(len(fc.code)) + 2 }},
		{"cond target", func(fc *fnCode) { fc.condTab[0].fpc = int32(len(fc.code)) }},
		{"phi end", func(fc *fnCode) { fc.phiTab[0].endPC = int32(len(fc.code)) }},
		{"phi edge slot", func(fc *fnCode) { fc.phiTab[0].edges[0].src[0] = uint16(fc.nSlots) }},
		{"phi edge length", func(fc *fnCode) { fc.phiTab[0].edges[0].src = fc.phiTab[0].edges[0].src[:0] }},
		{"phi bound", func(fc *fnCode) { fc.maxPhi = fc.nLocals + 1 }},
		{"call args", func(fc *fnCode) { fc.callTab[0].args = append(fc.callTab[0].args, 0) }},
		{"call arg slot", func(fc *fnCode) { fc.callTab[0].args[0] = uint16(fc.nSlots) }},
		{"operand slot", func(fc *fnCode) {
			for i := range fc.meta {
				if len(fc.meta[i].argSlots) > 0 {
					fc.meta[i].argSlots[0] = uint16(fc.nSlots)
					return
				}
			}
		}},
		{"branch index", func(fc *fnCode) {
			pc := firstOp(fc, vopBr)
			fc.code[pc+1] = fc.code[pc+1]&^0xffffffff | uint64(len(fc.brTab))
		}},
		{"call index", func(fc *fnCode) {
			pc := firstOp(fc, vopCall)
			fc.code[pc+1] = fc.code[pc+1]&^0xffffffff | uint64(len(fc.callTab))
		}},
		{"opcode", func(fc *fnCode) { fc.code[0] = fc.code[0]&^(0xff<<56) | uint64(numVops)<<56 }},
		{"fall-through", func(fc *fnCode) { fc.code = append(fc.code, encWord0(vopAdd, 0, 0, 0, 0), encWord1(0, 32)) }},
	}
	for _, tt := range tests {
		fc := cloneFnCode(orig)
		tt.edit(fc)
		if _, err := decodeFnCode(fc.fn, encodeFnCode(fc)); err == nil {
			t.Errorf("%s: decode accepted a bad body", tt.name)
		}
	}
}

// phiCallModule builds a loop whose main holds every side table the
// decoder checks: a phi group, a call, branches and operands.
func phiCallModule() *ir.Module {
	b := ir.NewBuilder("phicall")
	f := b.NewFunc("f", ir.I32, &ir.Param{Name: "x", Ty: ir.I32})
	b.Ret(b.Add(f.Params[0], ir.ConstInt(ir.I32, 1)))

	b.NewFunc("main", ir.Void)
	entry := b.CurBlock()
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(body)
	b.SetBlock(body)
	i := b.Phi(ir.I32)
	b.AddIncoming(i, ir.ConstInt(ir.I32, 0), entry)
	i2 := b.Call(f, i)
	b.AddIncoming(i, i2, body)
	b.CondBr(b.ICmp(ir.ISLT, i2, ir.ConstInt(ir.I32, 10)), body, exit)
	b.SetBlock(exit)
	b.Output(i2)
	b.Ret(nil)
	return b.MustModule()
}

// cloneFnCode deep-copies the parts of fc the table tests edit.
func cloneFnCode(fc *fnCode) *fnCode {
	c := *fc
	c.code = append([]uint64(nil), fc.code...)
	c.blockPC = append([]int32(nil), fc.blockPC...)
	c.brTab = append([]brTarget(nil), fc.brTab...)
	c.condTab = append([]condTarget(nil), fc.condTab...)
	c.phiTab = make([]phiGroup, len(fc.phiTab))
	for i, g := range fc.phiTab {
		g.edges = append([]phiEdge(nil), g.edges...)
		for j := range g.edges {
			g.edges[j].src = append([]uint16(nil), g.edges[j].src...)
		}
		c.phiTab[i] = g
	}
	c.callTab = append([]callEntry(nil), fc.callTab...)
	for i := range c.callTab {
		c.callTab[i].args = append([]uint16(nil), fc.callTab[i].args...)
	}
	c.meta = make([]instrMeta, len(fc.meta))
	for i, mt := range fc.meta {
		c.meta[i].argSlots = append([]uint16(nil), mt.argSlots...)
	}
	return &c
}

// readCodecCorpusFile parses a two-value (uint8, []byte) fuzz corpus file.
func readCodecCorpusFile(t *testing.T, path string) (uint8, []byte) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-corpus)", err)
	}
	var k uint8
	var data string
	lines := strings.SplitN(string(raw), "\n", 4)
	if len(lines) < 3 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	if _, err := fmt.Sscanf(lines[1], "uint8(%d)", &k); err != nil {
		t.Fatalf("%s: kernel line: %v", path, err)
	}
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"), "%q", &data); err != nil {
		t.Fatalf("%s: data line: %v", path, err)
	}
	return k, []byte(data)
}
