package trace_test

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/epvf"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/trace"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the FuzzLoad seed corpus in testdata/fuzz/FuzzLoad")

// fuzzKernels are the small programs whose saved traces seed FuzzLoad:
// loads and stores, a call, phis and a data-dependent branch.
var fuzzKernels = []string{
	kernel,
	`
long sq(long x) { return x * x; }
void main() {
  long *a = malloc(8 * 8);
  int i;
  for (i = 0; i < 8; i = i + 1) { a[i] = sq(i) - 20; }
  long m = 0;
  for (i = 0; i < 8; i = i + 1) { if (a[i] > m) { m = a[i]; } }
  output(m);
  free(a);
}
`,
}

var (
	fuzzModulesOnce sync.Once
	fuzzModules     []*ir.Module
	fuzzModulesErr  error
)

// fuzzModule returns the compiled fuzz kernel k (modulo the kernel count).
func fuzzModule(t testing.TB, k uint8) *ir.Module {
	fuzzModulesOnce.Do(func() {
		for i, src := range fuzzKernels {
			m, err := lang.Compile(fmt.Sprintf("fuzz%d", i), src)
			if err != nil {
				fuzzModulesErr = err
				return
			}
			fuzzModules = append(fuzzModules, m)
		}
	})
	if fuzzModulesErr != nil {
		t.Fatal(fuzzModulesErr)
	}
	return fuzzModules[int(k)%len(fuzzModules)]
}

// FuzzLoad feeds arbitrary bytes to Load as a trace-cache entry of a fuzz
// kernel. Load must reject what it cannot vouch for with an error; any
// trace it returns must analyze without panicking and survive a Save/Load
// round trip.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, k uint8, data []byte) {
		m := fuzzModule(t, k)
		tr, err := trace.Load(bytes.NewReader(data), m)
		if err != nil {
			return
		}
		a := epvf.AnalyzeTrace(tr, epvf.Config{})
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatalf("Save of a loaded trace: %v", err)
		}
		back, err := trace.Load(&buf, m)
		if err != nil {
			t.Fatalf("reloading a saved trace: %v", err)
		}
		if b := epvf.AnalyzeTrace(back, epvf.Config{}); a.ACEBits != b.ACEBits ||
			a.CrashResult.CrashBitCount != b.CrashResult.CrashBitCount {
			t.Fatalf("round trip changed the analysis")
		}
	})
}

// corpusEntry is one committed FuzzLoad seed and what Load must make of
// it: accept it, or reject it with an error containing reject.
type corpusEntry struct {
	name   string
	kernel uint8
	reject string
	data   func(t *testing.T) []byte
}

var corpus = []corpusEntry{
	{name: "kernel0", kernel: 0, data: func(t *testing.T) []byte { return savedKernel(t, 0) }},
	{name: "kernel1", kernel: 1, data: func(t *testing.T) []byte { return savedKernel(t, 1) }},
	{name: "truncated", kernel: 1, reject: "decoding", data: func(t *testing.T) []byte {
		b := savedKernel(t, 1)
		return b[:len(b)/2]
	}},
	{name: "forward-def", kernel: 0, reject: "is not an earlier event", data: func(t *testing.T) []byte {
		// A well-formed entry whose first operand def points past its
		// own event.
		return corrupted(t, 0, func(st *savedMirror) { st.OpDefs[0] = int64(len(st.Instrs)) })
	}},
}

// corrupted returns the saved trace of fuzz kernel k after edit changed
// its decoded columns.
func corrupted(t *testing.T, k uint8, edit func(*savedMirror)) []byte {
	var st savedMirror
	if err := gob.NewDecoder(bytes.NewReader(savedKernel(t, k))).Decode(&st); err != nil {
		t.Fatal(err)
	}
	edit(&st)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsBadColumns breaks each property Load checks, one at a
// time, in an otherwise well-formed saved trace.
func TestLoadRejectsBadColumns(t *testing.T) {
	m := fuzzModule(t, 1)
	// firstLinkedLoad returns the access index and event of the first
	// load with a memory def.
	firstLinkedLoad := func(st *savedMirror) (int, int64) {
		acc := 0
		for ev, id := range st.Instrs {
			switch m.InstrByID(int(id)).Op {
			case ir.OpLoad:
				if st.Accesses[acc].MemDef != trace.NoDef {
					return acc, int64(ev)
				}
			case ir.OpStore:
			default:
				continue
			}
			acc++
		}
		t.Fatal("no load reads a stored value")
		return 0, 0
	}
	tests := []struct {
		name, reject string
		edit         func(*savedMirror)
	}{
		{"format", "format", func(st *savedMirror) { st.Format = 1 }},
		{"short results", "column lengths disagree", func(st *savedMirror) { st.Results = st.Results[1:] }},
		{"short op defs", "column lengths disagree", func(st *savedMirror) { st.OpDefs = st.OpDefs[1:] }},
		{"unknown instruction", "unknown instruction", func(st *savedMirror) { st.Instrs[0] = 1 << 20 }},
		{"missing operands", "operand columns end", func(st *savedMirror) {
			st.Ops, st.OpDefs = st.Ops[:len(st.Ops)-1], st.OpDefs[:len(st.OpDefs)-1]
		}},
		{"extra operands", "operand and", func(st *savedMirror) {
			st.Ops, st.OpDefs = append(st.Ops, 0), append(st.OpDefs, trace.NoDef)
		}},
		{"def below NoDef", "is not an earlier event", func(st *savedMirror) { st.OpDefs[0] = -2 }},
		{"missing access", "access column ends", func(st *savedMirror) { st.Accesses = st.Accesses[:len(st.Accesses)-1] }},
		{"extra access", "access entries", func(st *savedMirror) { st.Accesses = append(st.Accesses, trace.Access{MemDef: trace.NoDef}) }},
		{"no snapshot", "no snapshot", func(st *savedMirror) { st.Accesses[0].VMAVer = 1 << 20 }},
		{"memory def not earlier", "not an earlier store", func(st *savedMirror) {
			acc, ev := firstLinkedLoad(st)
			st.Accesses[acc].MemDef = ev
		}},
		{"memory def not a store", "not an earlier store", func(st *savedMirror) {
			acc, ev := firstLinkedLoad(st)
			st.Accesses[acc].MemDef = ev - 1 // the load's address computation
		}},
		{"output outside", "does not fit", func(st *savedMirror) { st.Outputs[0].EventIdx = int64(len(st.Instrs)) }},
		{"output def not earlier", "does not fit", func(st *savedMirror) { st.Outputs[0].Def = st.Outputs[0].EventIdx }},
	}
	for _, tt := range tests {
		_, err := trace.Load(bytes.NewReader(corrupted(t, 1, tt.edit)), m)
		if err == nil || !strings.Contains(err.Error(), tt.reject) {
			t.Errorf("%s: Load error %v, want one containing %q", tt.name, err, tt.reject)
		}
	}
}

// savedMirror has the field names and types of the saved-trace gob, for
// crafting corrupted entries.
type savedMirror struct {
	Format     int
	ModuleName string
	NumInstrs  int
	Instrs     []int32
	Results    []uint64
	Ops        []uint64
	OpDefs     []int64
	Accesses   []trace.Access
	Outputs    []trace.Output
	Snapshots  map[int][]mem.VMA
	Layout     mem.Layout
}

// savedKernel records fuzz kernel k and returns its saved trace.
func savedKernel(t *testing.T, k uint8) []byte {
	res, err := interp.Run(fuzzModule(t, k), interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFuzzLoadCorpus checks that Load accepts every committed kernel seed
// and rejects the truncated and corrupted ones. With -update-corpus it
// first rewrites the seeds from the current trace format.
func TestFuzzLoadCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLoad")
	for _, e := range corpus {
		path := filepath.Join(dir, e.name)
		if *updateCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			body := fmt.Sprintf("go test fuzz v1\nuint8(%d)\n[]byte(%q)\n", e.kernel, e.data(t))
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		k, data := readCorpusFile(t, path)
		_, err := trace.Load(bytes.NewReader(data), fuzzModule(t, k))
		switch {
		case e.reject == "" && err != nil:
			t.Errorf("%s: Load rejected a recorded trace: %v", e.name, err)
		case e.reject != "" && err == nil:
			t.Errorf("%s: Load accepted a bad entry", e.name)
		case e.reject != "" && !strings.Contains(err.Error(), e.reject):
			t.Errorf("%s: Load error %q, want one containing %q", e.name, err, e.reject)
		}
	}
}

// readCorpusFile parses a two-value (uint8, []byte) fuzz corpus file.
func readCorpusFile(t *testing.T, path string) (uint8, []byte) {
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
