package inc

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/ddg"
	"repro/internal/epvf"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/protect"
	"repro/internal/rangeprop"
	"repro/internal/trace"
)

func memStore(t *testing.T) *cache.Store {
	t.Helper()
	s, err := cache.Open(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lang.Compile("prog", src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return m
}

// assertSameAnalysis is the bit-identity oracle: every raw integer the
// composed analysis carries — including the full per-use and per-def
// crash-mask maps, from which every summary row derives — must equal the
// from-scratch run's exactly.
func assertSameAnalysis(t *testing.T, label string, want, got *epvf.Analysis) {
	t.Helper()
	if want.TotalBits != got.TotalBits || want.ACEBits != got.ACEBits || want.ACENodes != got.ACENodes {
		t.Fatalf("%s: numerators differ: total %d/%d ace %d/%d nodes %d/%d",
			label, want.TotalBits, got.TotalBits, want.ACEBits, got.ACEBits, want.ACENodes, got.ACENodes)
	}
	w, g := want.CrashResult, got.CrashResult
	if w.CrashBitCount != g.CrashBitCount || w.UseCrashBitCount != g.UseCrashBitCount ||
		w.AccessesAnalyzed != g.AccessesAnalyzed {
		t.Fatalf("%s: crash tallies differ: def %d/%d use %d/%d accesses %d/%d",
			label, w.CrashBitCount, g.CrashBitCount, w.UseCrashBitCount, g.UseCrashBitCount,
			w.AccessesAnalyzed, g.AccessesAnalyzed)
	}
	if wu, gu := useMasks(w), useMasks(g); !reflect.DeepEqual(wu, gu) {
		t.Fatalf("%s: per-use crash masks differ (%d vs %d entries)", label, len(wu), len(gu))
	}
	if wd, gd := defMasks(w), defMasks(g); !reflect.DeepEqual(wd, gd) {
		t.Fatalf("%s: per-def crash masks differ (%d vs %d entries)", label, len(wd), len(gd))
	}
}

// maskAt is one nonzero crash mask of a result's per-use or per-def view.
type maskAt struct {
	use  trace.Use
	mask uint64
}

func useMasks(r *rangeprop.Result) []maskAt {
	var out []maskAt
	r.Uses(func(u trace.Use, m uint64) { out = append(out, maskAt{u, m}) })
	return out
}

func defMasks(r *rangeprop.Result) []maskAt {
	var out []maskAt
	r.Defs(func(ev int64, m uint64) { out = append(out, maskAt{trace.Use{Event: ev}, m}) })
	return out
}

// coldWarm runs the incremental analysis twice against one store and
// checks both against the from-scratch analysis: the cold pass computes
// and fills, the warm pass must reuse every section and still match.
func coldWarm(t *testing.T, label string, m *ir.Module, store *cache.Store, cfg epvf.Config) {
	t.Helper()
	want, _, err := epvf.AnalyzeModule(m, cfg)
	if err != nil {
		t.Fatalf("%s: scratch: %v", label, err)
	}
	icfg := Config{Store: store, Epvf: cfg}
	cold, err := AnalyzeModule(m, icfg)
	if err != nil {
		t.Fatalf("%s: cold: %v", label, err)
	}
	assertSameAnalysis(t, label+" cold", want, cold.Analysis)
	warm, err := AnalyzeModule(m, icfg)
	if err != nil {
		t.Fatalf("%s: warm: %v", label, err)
	}
	assertSameAnalysis(t, label+" warm", want, warm.Analysis)
	if warm.Stats.Recomputed != 0 || warm.Stats.Reused != len(warm.Stats.Sections) {
		t.Fatalf("%s: warm pass recomputed %d of %d sections (want 0): %v",
			label, warm.Stats.Recomputed, len(warm.Stats.Sections), warm.Stats.RecomputedNames())
	}
}

// TestKernelsBitIdentical is the Table-IV half of the tentpole property:
// compose(sections) == whole-module analysis, bit for bit, on every
// built-in kernel, cold and warm.
func TestKernelsBitIdentical(t *testing.T) {
	for _, b := range bench.All() {
		if testing.Short() && b.Name != "mm" && b.Name != "nw" {
			continue
		}
		m, err := b.Module(1)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		coldWarm(t, b.Name, m, memStore(t), epvf.Config{})
	}
}

// TestUnboundedDepthBitIdentical repeats the property at the unbounded
// walk depth the regression gate uses (and with the exact-address oracle,
// whose masks enter the slice hash).
func TestUnboundedDepthBitIdentical(t *testing.T) {
	b, ok := bench.Get("nw")
	if !ok {
		t.Fatal("no nw benchmark")
	}
	m, err := b.Module(1)
	if err != nil {
		t.Fatal(err)
	}
	coldWarm(t, "nw depth=-1", m, memStore(t),
		epvf.Config{Prop: rangeprop.Config{MaxDepth: -1}})
	coldWarm(t, "nw exact", m, memStore(t),
		epvf.Config{Prop: rangeprop.Config{ExactAddress: true}})
}

// genProgram mints a randomized multi-function MiniC program: value
// helpers feeding main plus self-contained void workers, so both
// cross-section value flow and isolated sections occur.
func genProgram(rng *rand.Rand) string {
	n := 40 + rng.Intn(120)
	mod := 4 + rng.Intn(8)
	var b strings.Builder
	fmt.Fprintf(&b, "int f(int x) { return x * %d + %d; }\n", 1+rng.Intn(9), rng.Intn(100))
	fmt.Fprintf(&b, "int g(int x) { if (x < %d) { return x + 1; } return x - f(x %% 7); }\n", rng.Intn(50))
	fmt.Fprintf(&b, "void w() {\n  int a[%d];\n  int i = 0;\n", mod)
	fmt.Fprintf(&b, "  while (i < %d) { a[i %% %d] = i * %d + %d; i = i + 1; }\n",
		20+rng.Intn(40), mod, 1+rng.Intn(5), rng.Intn(9))
	fmt.Fprintf(&b, "  int j = 0;\n  while (j < %d) { output(a[j]); j = j + 1; }\n}\n", mod)
	b.WriteString("int main() {\n")
	fmt.Fprintf(&b, "  int arr[%d];\n", mod)
	fmt.Fprintf(&b, "  int i = 0; int acc = %d;\n", rng.Intn(10))
	fmt.Fprintf(&b, "  while (i < %d) {\n", n)
	b.WriteString("    int t = f(i) ^ g(acc % 31);\n")
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
	b.WriteString("  w();\n")
	fmt.Fprintf(&b, "  int j = 0;\n  while (j < %d) { output(arr[j]); j = j + 1; }\n", mod)
	b.WriteString("  output(acc);\n  return 0;\n}\n")
	return b.String()
}

// TestRandomProgramsBitIdentical is the randomized half of the tentpole
// property, including section reuse ACROSS programs: all programs share
// one store, so a later program whose helper happens to hash like an
// earlier one may legitimately reuse it — and must still be bit-exact.
func TestRandomProgramsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	programs := 8
	if testing.Short() {
		programs = 3
	}
	store := memStore(t)
	for p := 0; p < programs; p++ {
		src := genProgram(rng)
		coldWarm(t, fmt.Sprintf("program %d", p), compile(t, src), store, epvf.Config{})
	}
}

// isolated is a fixture whose three workers touch only private state and
// emit their own outputs: no values flow between them, so editing one
// leaves the others' dynamic slices untouched.
const isolated = `
void f() {
  int a[8];
  int i = 0;
  while (i < 48) { a[i % 8] = i * 3 + 1; i = i + 1; }
  int j = 0;
  while (j < 8) { output(a[j]); j = j + 1; }
}
void g() {
  int b[6];
  int i = 0;
  while (i < 36) { b[i % 6] = i * 5 + 2; i = i + 1; }
  int j = 0;
  while (j < 6) { output(b[j]); j = j + 1; }
}
int main() {
  f();
  g();
  return 0;
}
`

// editedF is isolated with one constant changed inside f only.
var editedF = strings.Replace(isolated, "i * 3 + 1", "i * 3 + 2", 1)

// TestSingleFunctionEditRecomputesOneSection: after editing one isolated
// function, only that function's section recomputes; the result is still
// bit-identical to scratch.
func TestSingleFunctionEditRecomputesOneSection(t *testing.T) {
	store := memStore(t)
	coldWarm(t, "base", compile(t, isolated), store, epvf.Config{})

	m2 := compile(t, editedF)
	want, _, err := epvf.AnalyzeModule(m2, epvf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := AnalyzeModule(m2, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnalysis(t, "edited", want, r.Analysis)
	if names := r.Stats.RecomputedNames(); len(names) != 1 || names[0] != "f" {
		t.Fatalf("recomputed sections = %v, want exactly [f]", names)
	}
}

// TestProtectReuse: protect.Apply edits functions in place; a protected
// module's analysis must still compose bit-identically, reusing the
// sections of functions the pass did not touch.
func TestProtectReuse(t *testing.T) {
	store := memStore(t)
	coldWarm(t, "base", compile(t, isolated), store, epvf.Config{})

	// Protect instructions in f only, on a fresh compile of the same
	// source (protect mutates in place).
	m2 := compile(t, isolated)
	base, _, err := epvf.AnalyzeModule(m2, epvf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var selected []*ir.Instr
	for in := range base.PerInstruction() {
		if protect.Eligible(in) && in.Func() != nil && in.Func().Name == "f" {
			selected = append(selected, in)
			if len(selected) == 2 {
				break
			}
		}
	}
	if len(selected) == 0 {
		t.Fatal("no eligible instruction in f")
	}
	if err := protect.Apply(m2, selected); err != nil {
		t.Fatal(err)
	}

	want, _, err := epvf.AnalyzeModule(m2, epvf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := AnalyzeModule(m2, Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnalysis(t, "protected", want, r.Analysis)
	for _, s := range r.Stats.Sections {
		if s.Name == "g" && !s.Reused {
			t.Fatalf("section g recomputed after protecting f only: %+v", r.Stats.Sections)
		}
	}
}

// TestCorruptProfileOpRecomputes: a cached profile whose entry names an
// operand its event's instruction does not have is rejected, and the
// section is recomputed to a bit-identical result. An earlier entry of the
// same profile is corrupted too (all bits set), so a merge that kept what
// the bad profile contributed before the failing entry would show.
func TestCorruptProfileOpRecomputes(t *testing.T) {
	store := memStore(t)
	m := compile(t, isolated)
	coldWarm(t, "base", m, store, epvf.Config{})

	golden, err := interp.Run(m, interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := golden.Trace
	ace := ddg.New(tr).ACEMask()
	p := sectionize(tr, ace)
	cfg := Config{Store: store}
	p.hashSections(tr, ace, cfg.Epvf.Prop)
	s := p.byName["f"]
	raw, ok := store.Get(KindManifest, manifestKey(cfg.cfgKey(), s.name, s.hash))
	if !ok {
		t.Fatal("no manifest for section f")
	}
	var mf manifest
	if err := json.Unmarshal(raw, &mf); err != nil || len(mf.Entries) == 0 {
		t.Fatalf("manifest: %v (%d entries)", err, len(mf.Entries))
	}
	pk := profileKey(cfg.cfgKey(), s.name, mf.Entries[0])
	praw, ok := store.Get(KindSection, pk)
	if !ok {
		t.Fatal("no profile for section f")
	}
	pr, err := decodeProfile(praw)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Entries) < 2 {
		t.Fatalf("profile of f has %d entries, want at least 2", len(pr.Entries))
	}
	pr.Entries[0].Mask = ^uint64(0)
	last := &pr.Entries[len(pr.Entries)-1]
	ev := p.byName[pr.Names[last.NameIdx]].events[last.Ordinal]
	last.Op = trace.NumOperands(tr.Instr(ev))
	if err := store.Put(KindSection, pk, pr.encode()); err != nil {
		t.Fatal(err)
	}

	want, _, err := epvf.AnalyzeModule(m, epvf.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := AnalyzeModule(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnalysis(t, "corrupt op", want, r.Analysis)
	if names := r.Stats.RecomputedNames(); len(names) != 1 || names[0] != "f" {
		t.Fatalf("recomputed sections = %v, want exactly [f]", names)
	}
}

// TestProfileRoundTrip fuzzes the binary profile codec.
func TestProfileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		pr := &sectionProfile{Accesses: rng.Int63n(1 << 30)}
		nNames := rng.Intn(4)
		for i := 0; i < nNames; i++ {
			pr.Names = append(pr.Names, fmt.Sprintf("fn%d", i))
		}
		if nNames > 0 {
			ord := int64(0)
			prev := 0
			for i := 0; i < rng.Intn(20); i++ {
				name := prev
				if rng.Intn(3) == 0 {
					name = rng.Intn(nNames)
				}
				if name != prev {
					prev, ord = name, 0
				}
				ord += rng.Int63n(100)
				pr.Entries = append(pr.Entries, profEntry{
					NameIdx: name, Ordinal: ord, Op: rng.Intn(3), Mask: rng.Uint64(),
				})
			}
		}
		got, err := decodeProfile(pr.encode())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(normalize(pr), normalize(got)) {
			t.Fatalf("trial %d: round trip mismatch\nin:  %+v\nout: %+v", trial, pr, got)
		}
	}
	if _, err := decodeProfile([]byte("garbage")); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
	if _, err := decodeProfile(profileMagic); err == nil {
		t.Fatal("decoding truncated profile succeeded")
	}
}

// normalize maps nil and empty slices together for DeepEqual.
func normalize(pr *sectionProfile) sectionProfile {
	out := *pr
	if len(out.Names) == 0 {
		out.Names = nil
	}
	if len(out.Entries) == 0 {
		out.Entries = nil
	}
	return out
}
