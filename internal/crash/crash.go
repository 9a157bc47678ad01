// Package crash implements the paper's crash model (§III-D, Algorithm 3):
// given the VMA snapshot and stack pointer recorded at a load or store, it
// computes the range of address values for which the access would NOT raise
// a segmentation fault. The model mirrors the Linux do_page_fault /
// expand_stack logic: for a non-stack segment the valid range is the VMA
// itself; for the stack it extends down to max(rlimit floor, SP − 64KiB −
// 128B) — the rule whose omission left the paper's first model at only ~85%
// accuracy.
package crash

import (
	"math"
	"math/bits"

	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Bound is an inclusive range [Lo, Hi] of signed 64-bit values. For address
// operands the signed interpretation is equivalent to the unsigned one
// (user-space addresses are below 2^63) while correctly treating bit-63
// flips as out of range.
type Bound struct {
	Lo, Hi int64
}

// Unconstrained is the bound that excludes nothing.
var Unconstrained = Bound{Lo: math.MinInt64, Hi: math.MaxInt64}

// Contains reports whether v lies within the bound.
func (b Bound) Contains(v int64) bool { return v >= b.Lo && v <= b.Hi }

// IsUnconstrained reports whether the bound excludes nothing.
func (b Bound) IsUnconstrained() bool { return b == Unconstrained }

// Empty reports an empty bound (every value escapes).
func (b Bound) Empty() bool { return b.Lo > b.Hi }

// Model predicts segmentation faults from recorded VMA state.
type Model struct {
	// StackRule applies the Linux stack-extension rule. Disabling it
	// reproduces the paper's naive first hypothesis ("any access outside
	// segment boundaries faults"), which mispredicted ~15% of
	// out-of-segment accesses.
	StackRule bool
}

// NewModel returns the full crash model (stack rule enabled).
func NewModel() *Model { return &Model{StackRule: true} }

// Boundary implements CHECK_BOUNDARY for the memory access event ev of tr:
// the range of values the address operand may take without faulting,
// accounting for the access width (an access of w bytes at addr requires
// addr+w-1 to stay inside the segment). ok is false when the event is not a
// memory access or its snapshot is missing.
func (m *Model) Boundary(tr *trace.Trace, ev int64) (Bound, bool) {
	if r := obs.Default(); r != nil {
		r.Counter("epvf_crash_boundaries_total").Inc()
	}
	if !tr.IsMemAccess(ev) {
		return Bound{}, false
	}
	a := tr.Mem(ev)
	vmas := tr.Snapshots[a.VMAVer]
	if vmas == nil {
		return Bound{}, false
	}
	in := tr.Instr(ev)
	write := in.Op == ir.OpStore
	lo, hi, ok := mem.Resolve(vmas, a.SP, tr.Layout.StackTop, tr.Layout.StackRLimit,
		a.Addr, write, m.StackRule)
	if !ok {
		return Bound{}, false
	}
	size := in.Elem.Size()
	return Bound{Lo: int64(lo), Hi: int64(hi) - size}, true
}

// WouldFault predicts whether an access at addr (with the width and
// direction of event ev) would fault, checking the full VMA set rather than
// a single interval. This is the exact per-bit oracle used by the
// exact-address ablation: a flipped address can land in a *different* valid
// VMA, which interval propagation cannot see.
func (m *Model) WouldFault(tr *trace.Trace, ev int64, addr uint64) bool {
	acc := tr.Mem(ev)
	vmas := tr.Snapshots[acc.VMAVer]
	if vmas == nil {
		return false
	}
	in := tr.Instr(ev)
	write := in.Op == ir.OpStore
	size := uint64(in.Elem.Size())
	for _, a := range []uint64{addr, addr + size - 1} {
		if _, _, ok := mem.Resolve(vmas, acc.SP, tr.Layout.StackTop, tr.Layout.StackRLimit,
			a, write, m.StackRule); !ok {
			return true
		}
	}
	return false
}

// MaskFromBound returns the bitmask of single-bit flips of value v (of the
// given width) that escape the bound under the signed interpretation — the
// "bits that make the value of op outside (new_max, new_min)" step of
// Algorithm 2.
//
// It is closed-form rather than a test of each flip. With s the signed
// value, flipping a clear bit k below the sign bit yields s + 2^k, which
// escapes iff 2^k > Hi − s or 2^k < Lo − s; flipping a set one yields
// s − 2^k, which escapes iff 2^k > s − Lo or 2^k < s − Hi. For a
// difference d ≥ 0, 2^k > d holds exactly for k ≥ bits.Len64(d), and for
// d > 0, 2^k < d exactly for k < bits.Len64(d−1), so each condition is a
// suffix or prefix mask of the bit positions. Only the sign bit is tested
// directly.
func MaskFromBound(v uint64, width int, b Bound) uint64 {
	if b.IsUnconstrained() || width <= 0 {
		return 0
	}
	width = min(width, 64)
	s := ir.SignExtend(v, width)
	// up: positions whose flip escapes when the bit is clear; down: when set.
	up, down := ^uint64(0), ^uint64(0)
	if s <= b.Hi {
		up = ^lowBits(bits.Len64(uint64(b.Hi) - uint64(s)))
		if s < b.Lo {
			up |= lowBits(bits.Len64(uint64(b.Lo) - uint64(s) - 1))
		}
	}
	if s >= b.Lo {
		down = ^lowBits(bits.Len64(uint64(s) - uint64(b.Lo)))
		if s > b.Hi {
			down |= lowBits(bits.Len64(uint64(s) - uint64(b.Hi) - 1))
		}
	}
	sign := uint64(1) << uint(width-1)
	m := (up&^v | down&v) & (sign - 1)
	if f := ir.SignExtend(v^sign, width); f < b.Lo || f > b.Hi {
		m |= sign
	}
	return m
}

// lowBits returns the mask of bit positions below n (all 64 for n = 64).
func lowBits(n int) uint64 { return uint64(1)<<uint(n) - 1 }

// MaskExact returns the bitmask of single-bit flips of the address operand
// of event ev that the exact VMA oracle predicts to fault.
func (m *Model) MaskExact(tr *trace.Trace, ev int64, addr uint64, width int) uint64 {
	var mask uint64
	for bit := 0; bit < width; bit++ {
		if m.WouldFault(tr, ev, addr^(1<<uint(bit))) {
			mask |= 1 << uint(bit)
		}
	}
	return mask
}

// PopCount returns the number of set bits in a crash mask.
func PopCount(mask uint64) int { return bits.OnesCount64(mask) }
