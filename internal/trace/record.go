package trace

import (
	"repro/internal/ir"
	"repro/internal/mem"
)

// Every trace column is stored in chunks of chunkLen elements. A full
// chunk is never copied again, so recording writes each value once instead
// of the ~5x an append-grown slice copies on its way to the final size,
// and with chunkLen at 2^17 a long recording allocates well under one
// object per 10,000 events. Only a column's first chunk grows, by
// doubling from firstChunk, so a short trace stays small, and Finish trims
// each column's last chunk to its length.
const (
	chunkShift = 17
	chunkLen   = 1 << chunkShift
	firstChunk = 64
)

// column is an append-only array of pointer-free values stored in chunks.
type column[T any] struct {
	chunks [][]T
}

// at returns element i of a column filled one element at a time, whose
// chunk k therefore holds elements [k*chunkLen, (k+1)*chunkLen).
func (c *column[T]) at(i int64) *T { return &c.chunks[i>>chunkShift][i&(chunkLen-1)] }

// run returns the n elements reserve placed at pos.
func (c *column[T]) run(pos int64, n int) []T {
	o := int(uint32(pos))
	return c.chunks[pos>>32][o : o+n : o+n]
}

// reserve appends n zero elements within a single chunk and returns them
// with their position, chunk index << 32 | offset. A run that does not fit
// the current chunk starts the next one; a run longer than chunkLen gets a
// chunk of its own.
func (c *column[T]) reserve(n int) ([]T, int64) {
	k := len(c.chunks) - 1
	if k < 0 || len(c.chunks[k])+n > chunkLen {
		size := chunkLen
		if k < 0 {
			size = firstChunk
		}
		c.chunks = append(c.chunks, make([]T, 0, max(size, n)))
		k++
	}
	ch := c.chunks[k]
	l := len(ch)
	if l+n > cap(ch) {
		grown := make([]T, l, min(max(2*cap(ch), l+n), max(chunkLen, l+n)))
		copy(grown, ch)
		ch = grown
	}
	c.chunks[k] = ch[:l+n]
	return ch[l : l+n : l+n], int64(k)<<32 | int64(l)
}

// trim releases the unused capacity of the last chunk.
func (c *column[T]) trim() {
	if k := len(c.chunks) - 1; k >= 0 && len(c.chunks[k]) < cap(c.chunks[k]) {
		c.chunks[k] = append([]T(nil), c.chunks[k]...)
	}
}

// Recorder builds a Trace while an engine executes. Both execution engines
// record through it: per retired instruction one Event call, then
// SetResult when the result commits and, for loads and stores, Access
// followed by Loaded or Stored once the access succeeds. Recording
// allocates only when a column starts a new chunk or a store first touches
// a memory page.
type Recorder struct {
	t        *Trace
	accesses int64
	// lastWrite holds, per defPageSize-byte page of memory, the last store
	// event to write each byte, plus one (zero: never written).
	lastWrite map[uint64]*defPage
	page      uint64
	cur       *defPage
}

const (
	defPageShift = 12
	defPageSize  = 1 << defPageShift
)

type defPage [defPageSize]int64

// NewRecorder starts an empty trace of a run of m.
func NewRecorder(m *ir.Module) *Recorder {
	return &Recorder{
		t:         &Trace{Module: m, instrs: instrTable(m)},
		lastWrite: make(map[uint64]*defPage),
	}
}

// instrTable indexes m's instructions by ID.
func instrTable(m *ir.Module) []*ir.Instr {
	byID := make([]*ir.Instr, m.NumInstrs())
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				byID[in.ID] = in
			}
		}
	}
	return byID
}

// Event appends an event for in, with a zero result, and returns its
// NumOperands(in) operand bits and defs for the caller to fill. A load or
// store starts with the Access{MemDef: NoDef}.
func (r *Recorder) Event(in *ir.Instr) (ops []uint64, defs []int64) {
	t := r.t
	n := NumOperands(in)
	// The defs column grows in step with ops, so one position locates an
	// event's run in both.
	ops, pos := t.ops.reserve(n)
	defs, _ = t.defs.reserve(n)
	ev, _ := t.events.reserve(1)
	ev[0] = event{ops: pos, instr: int32(in.ID), access: -1}
	if in.Op.IsMemAccess() {
		a, _ := t.access.reserve(1)
		a[0].MemDef = NoDef
		ev[0].access = int32(r.accesses)
		r.accesses++
	}
	t.n++
	return ops, defs
}

// SetResult records the committed result bits of event i.
func (r *Recorder) SetResult(i int64, bits uint64) { r.t.events.at(i).result = bits }

// Access records the effective address, VMA-table version and stack
// pointer of the load or store event i, before the access executes.
func (r *Recorder) Access(i int64, addr uint64, vmaVer int, sp uint64) {
	a := r.t.access.at(int64(r.t.events.at(i).access))
	a.Addr, a.VMAVer, a.SP = addr, vmaVer, sp
}

// Loaded records, for the load event i that read addr, the store that last
// wrote addr.
func (r *Recorder) Loaded(i int64, addr uint64) {
	if p := r.pageOf(addr, false); p != nil {
		if d := p[addr&(defPageSize-1)]; d != 0 {
			r.t.access.at(int64(r.t.events.at(i).access)).MemDef = d - 1
		}
	}
}

// Stored records the store event i as the last writer of the size bytes at
// addr.
func (r *Recorder) Stored(i int64, addr uint64, size int64) {
	for left := uint64(size); left > 0; {
		p := r.pageOf(addr, true)
		o := addr & (defPageSize - 1)
		n := min(left, defPageSize-o)
		for k := o; k < o+n; k++ {
			p[k] = i + 1
		}
		addr += n
		left -= n
	}
}

// pageOf returns the last-write page holding addr, creating it when
// create is set (else nil if no store has touched it).
func (r *Recorder) pageOf(addr uint64, create bool) *defPage {
	pg := addr >> defPageShift
	if r.cur != nil && r.page == pg {
		return r.cur
	}
	p := r.lastWrite[pg]
	if p == nil {
		if !create {
			return nil
		}
		p = new(defPage)
		r.lastWrite[pg] = p
	}
	r.page, r.cur = pg, p
	return p
}

// Finish completes the trace with the run's outputs, VMA history and
// layout. The recorder must not be used afterwards.
func (r *Recorder) Finish(outputs []Output, snapshots map[int][]mem.VMA, layout mem.Layout) *Trace {
	t := r.t
	t.Outputs, t.Snapshots, t.Layout = outputs, snapshots, layout
	t.events.trim()
	t.ops.trim()
	t.defs.trim()
	t.access.trim()
	r.t, r.lastWrite, r.cur = nil, nil, nil
	return t
}
