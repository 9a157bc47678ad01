package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// fastTwin drives two address spaces through the same operations: fast
// through LoadFast/StoreFast, ref through the reference CheckAccess
// followed by ReadUint/WriteUint. Everything else (allocation, stack
// frames, forks) is applied to both.
type fastTwin struct {
	t         *testing.T
	rng       *rand.Rand
	fast, ref *AddressSpace
	// hot holds recently accessed addresses, so accesses repeat the way a
	// kernel's do and the TLB hits.
	hot    []uint64
	blocks []uint64
	frames []uint64 // saved stack pointers of open PushFrames
	// forkFast and forkRef are the latest owner fork taken mid-sequence on
	// each side; they are never written and must stay equal to each other.
	forkFast, forkRef *AddressSpace
	forks             int
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// addr picks an access address: a hot address, one in the first or last
// page of a random VMA (often at the page end, so accesses straddle pages
// or run past the VMA), a stack address near SP, at the stack VMA's lower
// end or below the guard gap, a heap block, or an unmapped one. The pages
// reached stay few, so comparing the twins after every step stays cheap.
func (w *fastTwin) addr() uint64 {
	r := w.rng
	inPage := func(page uint64) uint64 {
		if r.Intn(3) == 0 {
			return page + PageSize - uint64(r.Intn(9))
		}
		return page + uint64(r.Intn(PageSize))
	}
	switch k := r.Intn(10); {
	case k < 4 && len(w.hot) > 0:
		return w.hot[r.Intn(len(w.hot))] + uint64(r.Intn(3))*8
	case k < 6:
		vmas := w.ref.VMAs()
		v := vmas[r.Intn(len(vmas))]
		if v.End == v.Start {
			return v.Start
		}
		if r.Intn(2) == 0 {
			return inPage(v.Start &^ (PageSize - 1))
		}
		return inPage((v.End - 1) &^ (PageSize - 1))
	case k < 8:
		sp := w.ref.SP()
		switch r.Intn(3) {
		case 0:
			return sp + 256 - uint64(r.Intn(2*PageSize))
		case 1:
			// Around the stack VMA's lower end: inside, or an extension
			// access when it is within the guard gap.
			var start uint64
			for _, v := range w.ref.VMAs() {
				if v.Kind == SegStack {
					start = v.Start
				}
			}
			return start + PageSize - uint64(r.Intn(2*PageSize))
		default:
			return sp - StackGuardGap - uint64(r.Intn(2*PageSize))
		}
	case k < 9 && len(w.blocks) > 0:
		b := w.blocks[r.Intn(len(w.blocks))]
		return b + uint64(r.Intn(256))
	default:
		switch r.Intn(3) {
		case 0:
			return uint64(r.Intn(PageSize))
		case 1:
			return w.ref.Layout().MmapBase - PageSize + uint64(r.Intn(PageSize))
		default:
			return r.Uint64()
		}
	}
}

var fastSizes = []int64{1, 2, 3, 4, 8}

func (w *fastTwin) step(i int) {
	r := w.rng
	what, stored := "", false
	switch k := r.Intn(100); {
	case k < 40:
		a, size := w.addr(), fastSizes[r.Intn(len(fastSizes))]
		what = fmt.Sprintf("load %d at %#x", size, a)
		got, gerr := w.fast.LoadFast(a, size)
		var want uint64
		werr := w.ref.CheckAccess(a, size, false)
		if werr == nil {
			want = w.ref.ReadUint(a, size)
		}
		if errString(gerr) != errString(werr) || got != want {
			w.t.Fatalf("step %d %s: fast (%#x, %v), ref (%#x, %v)", i, what, got, gerr, want, werr)
		}
		if gerr == nil {
			w.touch(a)
		}
	case k < 75:
		a, size, v := w.addr(), fastSizes[r.Intn(len(fastSizes))], r.Uint64()
		if r.Intn(4) == 0 {
			a = w.ref.Layout().RODataBase + uint64(r.Intn(2*PageSize))
		}
		what = fmt.Sprintf("store %d at %#x", size, a)
		stored = true
		gerr := w.fast.StoreFast(a, size, v)
		werr := w.ref.CheckAccess(a, size, true)
		if werr == nil {
			w.ref.WriteUint(a, size, v)
		}
		if errString(gerr) != errString(werr) {
			w.t.Fatalf("step %d %s: fast %v, ref %v", i, what, gerr, werr)
		}
		if gerr == nil {
			w.touch(a)
		}
	case k < 80:
		size := uint64(1 + r.Intn(128))
		if r.Intn(40) == 0 {
			size = MmapThreshold + uint64(r.Intn(3*PageSize))
		}
		what = fmt.Sprintf("malloc %d", size)
		ga, gerr := w.fast.Malloc(size)
		wa, werr := w.ref.Malloc(size)
		if ga != wa || errString(gerr) != errString(werr) {
			w.t.Fatalf("step %d %s: fast (%#x, %v), ref (%#x, %v)", i, what, ga, gerr, wa, werr)
		}
		w.blocks = append(w.blocks, wa)
	case k < 82:
		kind := []SegKind{SegROData, SegData, SegHeap}[r.Intn(3)]
		size := uint64(r.Intn(40 * PageSize))
		what = fmt.Sprintf("ensure %s %d", kind, size)
		w.fast.EnsureSegmentSize(kind, size)
		w.ref.EnsureSegmentSize(kind, size)
	case k < 88:
		size := uint64(r.Intn(PageSize))
		what = fmt.Sprintf("push %d", size)
		sp := w.ref.SP()
		_, gerr := w.fast.PushFrame(size)
		_, werr := w.ref.PushFrame(size)
		if errString(gerr) != errString(werr) {
			w.t.Fatalf("step %d %s: fast %v, ref %v", i, what, gerr, werr)
		}
		if werr == nil {
			w.frames = append(w.frames, sp)
		}
	case k < 94:
		if len(w.frames) == 0 {
			return
		}
		sp := w.frames[len(w.frames)-1]
		w.frames = w.frames[:len(w.frames)-1]
		what = fmt.Sprintf("pop to %#x", sp)
		w.fast.PopFrame(sp)
		w.ref.PopFrame(sp)
	case k < 99:
		sp := w.ref.Layout().StackTop - 16 - uint64(r.Intn(8*PageSize))&^15
		what = fmt.Sprintf("setsp %#x", sp)
		w.fast.SetSP(sp)
		w.ref.SetSP(sp)
		w.frames = w.frames[:0]
	default:
		what = "fork"
		f := w.fast.Fork()
		if f.tlb != nil {
			w.t.Fatalf("step %d: Fork copied the TLB", i)
		}
		w.forkFast, w.forkRef = f, w.ref.Fork()
		w.forks++
	}
	w.compare(i, what, stored)
}

func (w *fastTwin) touch(a uint64) {
	if len(w.hot) < 32 {
		w.hot = append(w.hot, a)
	} else {
		w.hot[w.rng.Intn(len(w.hot))] = a
	}
}

func (w *fastTwin) compare(i int, what string, stored bool) {
	f, r := w.fast, w.ref
	switch {
	case f.Version() != r.Version():
		w.t.Fatalf("step %d %s: version fast %d, ref %d", i, what, f.Version(), r.Version())
	case !slices.Equal(f.VMAs(), r.VMAs()):
		w.t.Fatalf("step %d %s: VMAs differ:\nfast %s\nref  %s", i, what, f.Maps(), r.Maps())
	case f.DirtyPages() != r.DirtyPages():
		w.t.Fatalf("step %d %s: dirty pages fast %d, ref %d", i, what, f.DirtyPages(), r.DirtyPages())
	case !f.Equal(r):
		w.t.Fatalf("step %d %s: address spaces differ", i, what)
	}
	// A store through the fast path after an owner fork must copy the
	// page, leaving the fork as it was. Only stores write memory, so the
	// fork is checked after each of them.
	if stored && w.forkFast != nil && !w.forkFast.Equal(w.forkRef) {
		w.t.Fatalf("step %d %s: fork changed under the fast path", i, what)
	}
}

// TestFastPathMatchesCheckAccess is the property test of the software TLB:
// seeded random sequences of loads, stores, allocations, stack frame
// changes and owner forks must leave LoadFast/StoreFast observably
// identical to CheckAccess + ReadUint/WriteUint after every step. The
// second sequence runs on a layout whose segment bases are not page-aligned, where
// a page is only partly mapped and must never be cached as legal.
func TestFastPathMatchesCheckAccess(t *testing.T) {
	skewed := DefaultLayout()
	skewed.RODataBase += 0x800
	skewed.DataBase += 0x468
	skewed.HeapBase += 0x240
	for i, l := range []Layout{DefaultLayout(), skewed} {
		w := &fastTwin{
			t:    t,
			rng:  rand.New(rand.NewSource(int64(i + 1))),
			fast: New(l),
			ref:  New(l),
		}
		for i := 0; i < 10000; i++ {
			w.step(i)
		}
		if w.fast.tlb == nil {
			t.Fatal("fast path never allocated its TLB")
		}
		if w.forks == 0 {
			t.Fatal("sequence took no fork")
		}
	}
}

// TestStoreFastAfterForkCopies pins the copy-on-write rule on a TLB hit:
// the entry still points at the page the fork now shares, and the store
// must copy it rather than write in place.
func TestStoreFastAfterForkCopies(t *testing.T) {
	as := New(DefaultLayout())
	a := DefaultLayout().DataBase + 64
	if err := as.StoreFast(a, 8, 1); err != nil {
		t.Fatal(err)
	}
	if v, err := as.LoadFast(a, 8); err != nil || v != 1 {
		t.Fatalf("LoadFast = %d, %v", v, err)
	}
	fork := as.Fork()
	dirty := as.DirtyPages()
	if err := as.StoreFast(a, 8, 2); err != nil {
		t.Fatal(err)
	}
	if got := as.DirtyPages() - dirty; got != 1 {
		t.Fatalf("store after fork dirtied %d pages, want 1 (COW)", got)
	}
	if v, _ := fork.LoadFast(a, 8); v != 1 {
		t.Fatalf("fork sees %d after owner store, want 1", v)
	}
	if v, _ := as.LoadFast(a, 8); v != 2 {
		t.Fatalf("owner reads %d, want 2", v)
	}
}
