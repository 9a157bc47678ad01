// Package rangeprop implements the paper's propagation model (§III-C,
// Algorithms 1 and 2, Table III): starting from every load/store in the ACE
// graph, it propagates the crash model's valid-address range backward along
// the slice of the address computation, inverting each instruction's
// semantics to derive, per operand use, the range of values that keep the
// eventual memory access in bounds — and therefore the set of bits whose
// flip would crash the program (the CRASHING_BIT_LIST).
package rangeprop

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/crash"
	"repro/internal/ddg"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/trace"
)

// DefaultMaxDepth bounds how many def-use hops a single backward-slice walk
// follows. Address slices are shallow (index arithmetic plus spills through
// the stack); deep value chains re-enter through nearer accesses anyway, so
// a modest bound preserves accuracy while keeping the analysis near-linear
// — the engineering fix the paper's scalability discussion (§VI-A) calls
// for.
const DefaultMaxDepth = 24

// Config controls the propagation analysis.
type Config struct {
	// MaxDepth bounds the per-access backward walk; zero means
	// DefaultMaxDepth, negative means unbounded.
	MaxDepth int
	// ExactAddress uses the exact multi-VMA oracle for the bits of the
	// direct address operand instead of the single-interval bound
	// (ablation: the paper's Algorithm 2 is interval-only).
	ExactAddress bool
	// Model is the crash model; nil means crash.NewModel().
	Model *crash.Model
}

// useSlots is the number of operand slots per event a walk can reach:
// seeds read operand 0 (load) or 1 (store), and Table III's inversions
// yield operands 0 to 2 (select's arms are 1 and 2). The dense per-use
// masks of a walk live at index event*useSlots+op.
const useSlots = 3

// Result is the computed CRASHING_BIT_LIST plus aggregate counts.
//
// While walks run, per-use masks accumulate in a dense trace-sized array.
// Finalize folds them into per-def masks, then keeps only event-sorted
// lists of the nonzero masks of both views and releases the dense array.
// Masks are read through UseMask, DefMask, Uses and Defs; a finalized
// Result is safe for concurrent readers.
type Result struct {
	// CrashBitCount is the number of (register, bit) pairs predicted to
	// crash, at def granularity — the quantity subtracted from the ACE
	// bits in Eq. 2.
	CrashBitCount int64
	// UseCrashBitCount is the finer-grained (use, bit) tally.
	UseCrashBitCount int64
	// AccessesAnalyzed counts the ACE-graph loads/stores that seeded
	// walks.
	AccessesAnalyzed int64

	// tr is the trace the masks index; OrUse checks uses against it.
	tr *trace.Trace
	// dense holds the per-use masks, indexed by event*useSlots+op, until
	// Finalize compacts them; nil for a compact result.
	dense *denseMasks
	// uses and defs are the nonzero per-use and per-def masks, sorted by
	// use slot and by defining event. defs is empty before Finalize.
	uses, defs []entry
}

// entry is one nonzero mask of a compact view.
type entry struct {
	key  int64
	mask uint64
}

// lookup returns the mask stored under key in a compact view, or zero.
func lookup(es []entry, key int64) uint64 {
	i, ok := slices.BinarySearchFunc(es, key, func(e entry, k int64) int { return cmp.Compare(e.key, k) })
	if !ok {
		return 0
	}
	return es[i].mask
}

// useOf maps a slot index (event*useSlots+op) back to its use.
func useOf(slot int64) trace.Use {
	return trace.Use{Event: slot / useSlots, Op: int(slot % useSlots)}
}

// UseMask returns the mask of bits predicted to crash the program if
// flipped at use u — zero for a use no walk reached.
func (r *Result) UseMask(u trace.Use) uint64 {
	if u.Event < 0 || u.Op < 0 || u.Op >= useSlots {
		return 0
	}
	if r.dense != nil {
		if u.Event >= int64(len(r.dense.m)/useSlots) {
			return 0
		}
		return r.dense.m[u.Event*useSlots+int64(u.Op)]
	}
	return lookup(r.uses, u.Event*useSlots+int64(u.Op))
}

// DefMask returns the full predicted crash-bit mask of the register
// defined at event ev — the union of the masks of all its uses, zero when
// no bit of that register is on the CRASHING_BIT_LIST. A register bit is
// crash-causing if corrupting it makes any consumer access fault — the
// CRASHING_BIT_LIST as the recall study and the attribution ledger read
// it. Zero for every def before Finalize.
func (r *Result) DefMask(ev int64) uint64 {
	return lookup(r.defs, ev)
}

// Uses calls f with every use that has a nonzero crash mask, in event
// order (operand order within an event).
func (r *Result) Uses(f func(u trace.Use, mask uint64)) {
	if r.dense != nil {
		r.dense.each(func(slot int64, m uint64) { f(useOf(slot), m) })
		return
	}
	for _, e := range r.uses {
		f(useOf(e.key), e.mask)
	}
}

// Defs calls f with every defining event that has a nonzero crash mask, in
// event order. It visits nothing before Finalize.
func (r *Result) Defs(f func(ev int64, mask uint64)) {
	for _, e := range r.defs {
		f(e.key, e.mask)
	}
}

// OrUse unions mask into the crash mask of use u. It is how walk results
// computed elsewhere (the incremental layer's cached section profiles)
// merge into a Result from Walker.Result, before Finalize. A use no walk
// can produce — an event outside the trace, or an operand its instruction
// does not have — is an error and leaves r unchanged.
func (r *Result) OrUse(u trace.Use, mask uint64) error {
	if r.dense == nil {
		return fmt.Errorf("rangeprop: OrUse(%v) on a compacted result", u)
	}
	if u.Event < 0 || u.Event >= r.tr.NumEvents() {
		return fmt.Errorf("rangeprop: use %v outside the %d-event trace", u, r.tr.NumEvents())
	}
	if n := trace.NumOperands(r.tr.Instr(u.Event)); u.Op < 0 || u.Op >= n || u.Op >= useSlots {
		return fmt.Errorf("rangeprop: use %v names operand %d of a %d-operand instruction", u, u.Op, n)
	}
	r.dense.or(u.Event*useSlots+int64(u.Op), mask)
	return nil
}

// Predicted reports whether flipping the given bit at the given use is
// predicted to crash.
func (r *Result) Predicted(u trace.Use, bit int) bool {
	return r.UseMask(u)&(1<<uint(bit)) != 0
}

// PredictedDef reports whether flipping the given bit of the register
// defined at event ev is predicted to crash.
func (r *Result) PredictedDef(ev int64, bit int) bool {
	return r.DefMask(ev)&(1<<uint(bit)) != 0
}

// PredictedDefMask reports whether a multi-bit fault (XOR mask) in the
// register defined at event ev is predicted to crash: true when any
// flipped bit is crash-causing. (Two flips cancelling each other inside a
// range is possible in principle but vanishingly rare.)
func (r *Result) PredictedDefMask(ev int64, mask uint64) bool {
	return r.DefMask(ev)&mask != 0
}

// Finalize aggregates the per-use crash masks into the def-granular view
// (each def's mask is the union of its uses' masks) and the two bit
// tallies, and compacts both views into event-sorted lists, releasing the
// dense walk-time array. Call it exactly once, after every walk and OrUse.
func (r *Result) Finalize(tr *trace.Trace) {
	if r.dense != nil {
		r.uses = r.dense.compact()
		r.dense = nil
	}
	defs := newDenseMasks(tr.NumEvents())
	for _, u := range r.uses {
		r.UseCrashBitCount += int64(crash.PopCount(u.mask))
		ev, op := u.key/useSlots, int(u.key%useSlots)
		if d := tr.OpDefs(ev); op < len(d) && d[op] != trace.NoDef {
			defs.or(d[op], u.mask)
		}
	}
	r.defs = defs.compact()
	for _, d := range r.defs {
		r.CrashBitCount += int64(crash.PopCount(d.mask))
	}
}

// denseMasks is an index-addressed mask array that also tracks which
// 64-entry blocks hold a nonzero mask, so its nonzero entries can be
// visited in index order, and cleared, at a cost proportional to the
// blocks touched rather than to the array's length.
type denseMasks struct {
	m []uint64
	// dirty has bit b of word w set when block 64*w+b of m (entries
	// 64*(64*w+b) onward) holds a nonzero mask.
	dirty []uint64
	// n counts the nonzero entries of m.
	n int
}

func newDenseMasks(size int64) *denseMasks {
	blocks := (size + 63) / 64
	return &denseMasks{m: make([]uint64, size), dirty: make([]uint64, (blocks+63)/64)}
}

// or unions mask into entry i.
func (d *denseMasks) or(i int64, mask uint64) {
	if mask == 0 {
		return
	}
	if d.m[i] == 0 {
		d.n++
		d.dirty[i>>12] |= 1 << (uint64(i>>6) & 63)
	}
	d.m[i] |= mask
}

// eachBlock calls f with the bounds [lo, hi) of every dirty block, in
// index order.
func (d *denseMasks) eachBlock(f func(lo, hi int64)) {
	for w, word := range d.dirty {
		for word != 0 {
			lo := (int64(w)*64 + int64(bits.TrailingZeros64(word))) * 64
			word &= word - 1
			f(lo, min(lo+64, int64(len(d.m))))
		}
	}
}

// each calls f with every nonzero entry, in index order.
func (d *denseMasks) each(f func(i int64, mask uint64)) {
	d.eachBlock(func(lo, hi int64) {
		for i := lo; i < hi; i++ {
			if d.m[i] != 0 {
				f(i, d.m[i])
			}
		}
	})
}

// compact returns the nonzero entries in index order.
func (d *denseMasks) compact() []entry {
	out := make([]entry, 0, d.n)
	d.each(func(i int64, m uint64) { out = append(out, entry{key: i, mask: m}) })
	return out
}

// reset zeroes every entry.
func (d *denseMasks) reset() {
	d.eachBlock(func(lo, hi int64) { clear(d.m[lo:hi]) })
	clear(d.dirty)
	d.n = 0
}

// Seeds returns the ACE-graph memory accesses of the trace — the walk
// seeds of ITERATE_OVER_ACE_GRAPH — in event order.
func Seeds(tr *trace.Trace, aceMask []bool) []int64 {
	var accesses []int64
	for i := int64(0); i < tr.NumEvents(); i++ {
		if aceMask[i] && tr.IsMemAccess(i) {
			accesses = append(accesses, i)
		}
	}
	return accesses
}

// Analyze runs ITERATE_OVER_ACE_GRAPH: for every load/store event inside
// aceMask it obtains the crash-model boundary and propagates it along the
// backward slice of the address. The result is finalized.
func Analyze(tr *trace.Trace, g *ddg.Graph, aceMask []bool, cfg Config) *Result {
	res := AnalyzeSeeds(tr, cfg, Seeds(tr, aceMask), nil)
	res.Finalize(tr)
	if r := obs.Default(); r != nil {
		r.Counter("epvf_rangeprop_analyses_total").Inc()
		r.Counter("epvf_rangeprop_accesses_total").Add(res.AccessesAnalyzed)
		r.Counter("epvf_rangeprop_crash_bits_total").Add(res.CrashBitCount)
	}
	return res
}

// AnalyzeSeeds runs the boundary check and backward walk for the given
// seed accesses only, serially, and returns the raw per-use crash masks
// (Finalize has not been called: the def view and the counts are not yet
// populated). Seed subsets are how the incremental layer (internal/inc)
// sections the model: per-seed walks are independent and their masks merge
// by union, so a whole-trace Analyze equals the union of AnalyzeSeeds over
// any partition of its seeds.
//
// touch, when non-nil, is invoked with the index of every event whose
// content the walks read — the seeds themselves plus every event reached
// along the backward slices. The incremental layer records this footprint
// to know which program sections a cached walk result depends on. cfg
// defaulting matches Analyze (nil Model, zero MaxDepth).
//
// The allocations do not depend on the number of seeds or of events the
// walks reach: the walk scratch is sized by the trace once per call.
func AnalyzeSeeds(tr *trace.Trace, cfg Config, seeds []int64, touch func(ev int64)) *Result {
	w := NewWalker(tr, cfg)
	n := w.walk(seeds, touch)
	return &Result{tr: tr, AccessesAnalyzed: n, dense: w.uses}
}

// A Walker runs the backward walks of seed subsets over one trace,
// keeping its scratch — a generation-stamped visited array, the worklist
// and the dense per-use masks — across calls. A Walker is not safe for
// concurrent use: concurrent analyses of one trace each need their own.
type Walker struct {
	tr       *trace.Trace
	cfg      Config
	maxDepth int
	// visited[def] == gen marks a def the current access's walk has
	// already expanded; gen advances once per access.
	visited []uint32
	gen     uint32
	work    []item
	uses    *denseMasks
}

// NewWalker returns a Walker over tr; cfg defaulting matches Analyze. The
// trace-sized scratch is allocated on the first walk.
func NewWalker(tr *trace.Trace, cfg Config) *Walker {
	if cfg.Model == nil {
		cfg.Model = crash.NewModel()
	}
	maxDepth := cfg.MaxDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxDepth
	}
	return &Walker{tr: tr, cfg: cfg, maxDepth: maxDepth}
}

// AnalyzeSeeds is the package-level AnalyzeSeeds on the walker's trace
// and config, except that the returned (unfinalized) Result holds its own
// compact copy of the masks: the walker's scratch is cleared for the next
// call, at a cost proportional to what this call touched.
func (w *Walker) AnalyzeSeeds(seeds []int64, touch func(ev int64)) *Result {
	n := w.walk(seeds, touch)
	res := &Result{tr: w.tr, AccessesAnalyzed: n, uses: w.uses.compact()}
	w.uses.reset()
	return res
}

// Result returns an empty, unfinalized Result for OrUse to merge section
// results into. It takes over the walker's trace-sized mask array, which
// the AnalyzeSeeds method leaves cleared, so the merge allocates no second
// one; a later walk allocates fresh scratch.
func (w *Walker) Result() *Result {
	if w.uses == nil {
		w.uses = newDenseMasks(w.tr.NumEvents() * useSlots)
	}
	res := &Result{tr: w.tr, dense: w.uses}
	w.uses = nil
	return res
}

// walk runs every seed's boundary check and backward walk into w.uses and
// returns the number of seeds whose boundary resolved.
func (w *Walker) walk(seeds []int64, touch func(ev int64)) (accesses int64) {
	if w.uses == nil {
		w.visited = make([]uint32, w.tr.NumEvents())
		w.uses = newDenseMasks(w.tr.NumEvents() * useSlots)
		w.work = make([]item, 0, 64)
	}
	for _, ev := range seeds {
		bound, ok := w.cfg.Model.Boundary(w.tr, ev)
		if !ok {
			// The boundary itself read the seed event; a cached section
			// must still know it depends on it.
			if touch != nil {
				touch(ev)
			}
			continue
		}
		accesses++
		ptrOp := 0
		if w.tr.Instr(ev).Op == ir.OpStore {
			ptrOp = 1
		}
		w.crashCalc(ev, ptrOp, bound, touch)
	}
	return accesses
}

// item is one worklist entry: operand use (Ev, Op) whose value must remain
// within R for the seeding access not to fault.
type item struct {
	ev    int64
	op    int
	r     crash.Bound
	depth int
	// direct marks the seeding address use, for the exact-oracle mode.
	direct bool
}

// crashCalc implements CRASH_CALC/GET_RANGE_FOR_CRASH_BITS for one memory
// access: a worklist walk over the backward slice of its address operand.
// touch (optional) receives the index of every event whose recorded content
// the walk reads: each processed worklist item and each def handed to
// invert (invert inspects the def event even when it yields no items).
func (w *Walker) crashCalc(accessEv int64, ptrOp int, bound crash.Bound, touch func(ev int64)) {
	tr := w.tr
	if w.gen++; w.gen == 0 {
		clear(w.visited)
		w.gen = 1
	}
	work := append(w.work[:0], item{ev: accessEv, op: ptrOp, r: bound, direct: true})
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]

		if touch != nil {
			touch(it.ev)
		}
		in := tr.Instr(it.ev)
		v := tr.Ops(it.ev)[it.op]
		width := trace.OperandWidth(in, it.op)
		if trace.InjectableOperand(in, it.op) || in.Op == ir.OpPhi {
			var mask uint64
			if it.direct && w.cfg.ExactAddress {
				mask = w.cfg.Model.MaskExact(tr, it.ev, v, width)
			} else {
				mask = crash.MaskFromBound(v, width, it.r)
			}
			w.uses.or(it.ev*useSlots+int64(it.op), mask)
		}

		def := tr.OpDefs(it.ev)[it.op]
		if def == trace.NoDef || w.visited[def] == w.gen {
			continue
		}
		if w.maxDepth > 0 && it.depth >= w.maxDepth {
			continue
		}
		w.visited[def] = w.gen
		if touch != nil {
			touch(def)
		}
		next, n := invert(tr, def, it.r)
		for _, nxt := range next[:n] {
			nxt.depth = it.depth + 1
			work = append(work, nxt)
		}
	}
	w.work = work
}

// invert applies Table III: given that the value produced by event def must
// stay within r, derive ranges for def's own operand uses — at most two,
// returned as out[:n].
func invert(tr *trace.Trace, def int64, r crash.Bound) (out [2]item, n int) {
	in := tr.Instr(def)
	ops := tr.Ops(def)
	mk := func(op int, b crash.Bound) item { return item{ev: def, op: op, r: b} }

	signedOp := func(op int) int64 {
		return ir.SignExtend(ops[op], trace.OperandWidth(in, op))
	}

	switch in.Op {
	case ir.OpAdd:
		// dest = op0 + op1: op_i within [lo - other, hi - other].
		return [2]item{
			mk(0, shift(r, -signedOp(1))),
			mk(1, shift(r, -signedOp(0))),
		}, 2
	case ir.OpSub:
		// dest = op0 - op1.
		return [2]item{
			mk(0, shift(r, signedOp(1))),
			mk(1, crash.Bound{Lo: satSub(signedOp(0), r.Hi), Hi: satSub(signedOp(0), r.Lo)}),
		}, 2
	case ir.OpMul:
		if b := divRange(r, signedOp(1)); !b.IsUnconstrained() {
			out[n] = mk(0, b)
			n++
		}
		if b := divRange(r, signedOp(0)); !b.IsUnconstrained() {
			out[n] = mk(1, b)
			n++
		}
		return out, n
	case ir.OpSDiv, ir.OpUDiv:
		// dest = op0 / c (truncating). Invertible for positive c and
		// non-negative ranges: op0 within [lo*c, hi*c + c - 1].
		c := signedOp(1)
		if c > 0 && r.Lo >= 0 {
			return [2]item{mk(0, crash.Bound{
				Lo: satMul(r.Lo, c),
				Hi: satAdd(satMul(r.Hi, c), c-1),
			})}, 1
		}
		return out, 0
	case ir.OpShl:
		// dest = op0 * 2^k.
		k := signedOp(1)
		if k >= 0 && k < 63 {
			if b := divRange(r, int64(1)<<uint(k)); !b.IsUnconstrained() {
				return [2]item{mk(0, b)}, 1
			}
		}
		return out, 0
	case ir.OpGEP:
		// dest = base + stride*idx.
		stride := in.Elem.Size()
		base := signedOp(0)
		idx := signedOp(1)
		out[0], n = mk(0, shift(r, -satMul(stride, idx))), 1
		if stride > 0 {
			lo := ceilDiv(satSub(r.Lo, base), stride)
			hi := floorDiv(satSub(r.Hi, base), stride)
			out[1], n = mk(1, crash.Bound{Lo: lo, Hi: hi}), 2
		}
		return out, n
	case ir.OpBitcast, ir.OpPtrToInt, ir.OpIntToPtr:
		return [2]item{mk(0, r)}, 1
	case ir.OpZExt:
		w := in.Args[0].Type().BitWidth()
		return [2]item{mk(0, intersect(r, crash.Bound{Lo: 0, Hi: maxOfWidthU(w)}))}, 1
	case ir.OpSExt:
		w := in.Args[0].Type().BitWidth()
		return [2]item{mk(0, intersect(r, widthBound(w)))}, 1
	case ir.OpLoad:
		// Value identity through memory: the loaded value equals the value
		// operand of the producing store. (The store's own address operand
		// is seeded separately by its own boundary check.)
		if d := tr.MemDef(def); d != trace.NoDef {
			return [2]item{{ev: d, op: 0, r: r}}, 1
		}
		return out, 0
	case ir.OpPhi:
		return [2]item{mk(0, r)}, 1
	case ir.OpSelect:
		// The chosen arm carried the value; determine it from the recorded
		// condition.
		if ops[0]&1 != 0 {
			return [2]item{mk(1, r)}, 1
		}
		return [2]item{mk(2, r)}, 1
	default:
		// srem/urem, bitwise logic, shifts right, float ops, calls:
		// not invertible to an interval (Table III stops here); the walk
		// terminates conservatively (no crash bits claimed upstream).
		return out, 0
	}
}

// shift translates a bound by delta with saturation.
func shift(r crash.Bound, delta int64) crash.Bound {
	return crash.Bound{Lo: satAdd(r.Lo, delta), Hi: satAdd(r.Hi, delta)}
}

// divRange inverts dest = c * op: the range of op keeping c*op within r.
// Returns Unconstrained when not invertible (c == 0).
func divRange(r crash.Bound, c int64) crash.Bound {
	switch {
	case c > 0:
		return crash.Bound{Lo: ceilDiv(r.Lo, c), Hi: floorDiv(r.Hi, c)}
	case c < 0:
		return crash.Bound{Lo: ceilDiv(r.Hi, c), Hi: floorDiv(r.Lo, c)}
	default:
		return crash.Unconstrained
	}
}

func intersect(a, b crash.Bound) crash.Bound {
	out := a
	if b.Lo > out.Lo {
		out.Lo = b.Lo
	}
	if b.Hi < out.Hi {
		out.Hi = b.Hi
	}
	return out
}

// widthBound returns the representable signed range of the given width.
func widthBound(w int) crash.Bound {
	if w >= 64 {
		return crash.Unconstrained
	}
	return crash.Bound{Lo: -(int64(1) << uint(w-1)), Hi: int64(1)<<uint(w-1) - 1}
}

// maxOfWidthU returns the maximum unsigned value of the given width as an
// int64 (saturated).
func maxOfWidthU(w int) int64 {
	if w >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(w) - 1
}

func satAdd(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		if a > 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return s
}

func satSub(a, b int64) int64 {
	if b == math.MinInt64 {
		if a >= 0 {
			return math.MaxInt64
		}
		return satAdd(a+1, math.MaxInt64)
	}
	return satAdd(a, -b)
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a {
		if (a > 0) == (b > 0) {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return p
}

// floorDiv divides rounding toward negative infinity.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// ceilDiv divides rounding toward positive infinity.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) == (b < 0)) {
		q++
	}
	return q
}
