package trace_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/epvf"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/trace"
)

const kernel = `
void main() {
  long *a = malloc(24 * 8);
  int i;
  for (i = 0; i < 24; i = i + 1) { a[i] = i * 9; }
  long s = 0;
  for (i = 0; i < 24; i = i + 1) { s = s + a[i]; }
  output(s);
  free(a);
}
`

func recorded(t *testing.T) *trace.Trace {
	t.Helper()
	m, err := lang.Compile("serial", kernel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := recorded(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Load against a fresh deterministic recompilation.
	m2, err := lang.Compile("serial", kernel)
	if err != nil {
		t.Fatal(err)
	}
	back, err := trace.Load(&buf, m2)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.NumEvents() != tr.NumEvents() || len(back.Outputs) != len(tr.Outputs) {
		t.Fatal("shape lost in round trip")
	}
	for i := int64(0); i < tr.NumEvents(); i++ {
		if tr.Instr(i).ID != back.Instr(i).ID || tr.Result(i) != back.Result(i) ||
			tr.Mem(i) != back.Mem(i) || !slices.Equal(tr.Ops(i), back.Ops(i)) ||
			!slices.Equal(tr.OpDefs(i), back.OpDefs(i)) {
			t.Fatalf("event %d differs after round trip", i)
		}
	}
	// The reloaded trace analyzes identically.
	a1 := epvf.AnalyzeTrace(tr, epvf.Config{})
	a2 := epvf.AnalyzeTrace(back, epvf.Config{})
	if a1.PVF() != a2.PVF() || a1.EPVF() != a2.EPVF() ||
		a1.CrashResult.CrashBitCount != a2.CrashResult.CrashBitCount {
		t.Errorf("analysis differs on reloaded trace: PVF %v/%v ePVF %v/%v",
			a1.PVF(), a2.PVF(), a1.EPVF(), a2.EPVF())
	}
}

func TestLoadRejectsWrongModule(t *testing.T) {
	tr := recorded(t)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := lang.Compile("other", `void main() { output(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Load(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("Load accepted a trace from a different module")
	}
	// Same name, different body.
	sameName, err := lang.Compile("serial", `void main() { output(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Load(bytes.NewReader(buf.Bytes()), sameName); err == nil {
		t.Error("Load accepted a trace against a structurally different module")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	m, err := lang.Compile("serial", kernel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Load(bytes.NewReader([]byte("not a trace")), m); err == nil {
		t.Error("Load accepted garbage")
	}
}
