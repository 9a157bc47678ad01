// Package trace defines the dynamic instruction trace produced by the
// execution engines: one event per executed IR instruction, carrying the
// operand and result bit patterns, the def-use links needed to build the
// dynamic dependence graph, and — for memory accesses — the effective
// address, the VMA-table version and the stack pointer at the time of the
// access (the state the paper's run-time probe captures from /proc,
// §III-D).
package trace

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/mem"
)

// NoDef marks an operand with no defining event (a constant immediate or a
// global's address).
const NoDef = int64(-1)

// Access is the memory side of one load or store event: the state the
// crash model replays for it.
type Access struct {
	// Addr is the effective address.
	Addr uint64
	// SP is the stack pointer at the access.
	SP uint64
	// MemDef is, for loads, the index of the store event that last wrote
	// the loaded location, or NoDef for initial memory (globals,
	// zero-fill). It is NoDef for stores.
	MemDef int64
	// VMAVer is the VMA-table version at the access, for replaying segment
	// boundaries in the crash model. It stays 0 (no snapshot) when the run
	// stopped at the access's event before executing it.
	VMAVer int
}

// Output records one value emitted through the output intrinsic.
type Output struct {
	// EventIdx is the dynamic index of the output event.
	EventIdx int64
	// Def is the event that produced the emitted value, or NoDef.
	Def int64
	// Bits is the raw emitted bit pattern.
	Bits uint64
	// Width is the emitted value's bit width.
	Width int
}

// Trace is a full dynamic execution record of one program run: one event
// per executed IR instruction, carrying the operand and result bit
// patterns, the def-use links needed to build the dynamic dependence
// graph, and — for loads and stores — an Access.
//
// Events are stored flat and pointer-free (see Recorder), so the garbage
// collector never scans them; read them through the accessors, which are
// safe for concurrent use once the trace is built.
type Trace struct {
	Module  *ir.Module
	Outputs []Output
	// Snapshots maps VMA-table versions to the VMA tables captured during
	// the run.
	Snapshots map[int][]mem.VMA
	// Layout is the memory layout the program ran under.
	Layout mem.Layout

	// instrs maps ir.Instr.ID to the instruction.
	instrs []*ir.Instr
	n      int64
	events column[event]
	ops    column[uint64]
	defs   column[int64]
	access column[Access]
}

// event is one recorded instruction execution. It holds no pointers: the
// instruction is named by its static ID and the operands by their position
// in the trace's operand columns.
type event struct {
	result uint64
	// ops locates the event's NumOperands(instr) operand bits and defs in
	// the ops and defs columns (see column.reserve).
	ops int64
	// instr is the executed instruction's ir.Instr.ID.
	instr int32
	// access indexes the access column, or is -1 for an event that is not
	// a load or store. int32 bounds a trace at ~2.1e9 accesses, far above
	// the interpreter's instruction budget.
	access int32
}

// NumEvents returns the dynamic instruction count.
func (t *Trace) NumEvents() int64 { return t.n }

// Instr returns the static instruction event i executed.
func (t *Trace) Instr(i int64) *ir.Instr { return t.instrs[t.events.at(i).instr] }

// Ops returns the raw operand bit patterns event i read, one per operand
// slot (NumOperands): for phi, the chosen incoming value; for condbr, the
// condition. The slice aliases the trace and must not be modified.
func (t *Trace) Ops(i int64) []uint64 {
	e := t.events.at(i)
	return t.ops.run(e.ops, NumOperands(t.instrs[e.instr]))
}

// OpDefs returns, for each entry of Ops(i), the index of the event whose
// result produced it, or NoDef. The slice aliases the trace and must not
// be modified.
func (t *Trace) OpDefs(i int64) []int64 {
	e := t.events.at(i)
	return t.defs.run(e.ops, NumOperands(t.instrs[e.instr]))
}

// Result returns the raw result bit pattern of event i (zero for
// instructions that produce no value).
func (t *Trace) Result(i int64) uint64 { return t.events.at(i).result }

// IsMemAccess reports whether event i is a load or store.
func (t *Trace) IsMemAccess(i int64) bool { return t.events.at(i).access >= 0 }

// Mem returns the memory side of event i. For an event that is not a load
// or store it is the zero Access with MemDef NoDef.
func (t *Trace) Mem(i int64) Access {
	if a := t.events.at(i).access; a >= 0 {
		return *t.access.at(int64(a))
	}
	return Access{MemDef: NoDef}
}

// MemDef returns Mem(i).MemDef.
func (t *Trace) MemDef(i int64) int64 {
	if a := t.events.at(i).access; a >= 0 {
		return t.access.at(int64(a)).MemDef
	}
	return NoDef
}

// Use identifies one dynamic operand read: operand Op of event Event. Uses
// are the "register at instruction i" granularity over which PVF and ePVF
// count bits (paper Eq. 1–3), and the granularity at which the fault
// injector corrupts values.
type Use struct {
	Event int64
	Op    int
}

// String renders the use for diagnostics.
func (u Use) String() string { return fmt.Sprintf("ev%d.op%d", u.Event, u.Op) }

// UseWidth returns the bit width of the given operand use.
func (t *Trace) UseWidth(u Use) int {
	return OperandWidth(t.Instr(u.Event), u.Op)
}

// OperandWidth returns the bit width of operand op of instruction in, under
// the phi convention (a phi event stores only the chosen incoming value).
func OperandWidth(in *ir.Instr, op int) int {
	if in.Op == ir.OpPhi {
		return in.Type().BitWidth()
	}
	if op < 0 || op >= len(in.Args) {
		return 0
	}
	return in.Args[op].Type().BitWidth()
}

// IsDef reports whether the instruction defines a register (produces a
// value). Register definitions are the "registers" resource over which PVF
// and ePVF count bits — each register counted once, as in the paper's
// running example — and the targets of the LLFI-style fault injector.
func IsDef(in *ir.Instr) bool { return !in.Type().IsVoid() }

// DefWidth returns the bit width of the register defined by in (zero for
// void instructions).
func DefWidth(in *ir.Instr) int { return in.Type().BitWidth() }

// InjectableOperand reports whether operand op of instruction in is a value
// carried in a virtual register rather than an immediate constant. The
// propagation model records crash ranges only for register operands — a
// fault cannot flip an instruction-encoded immediate (§II-E).
func InjectableOperand(in *ir.Instr, op int) bool {
	if in.Op == ir.OpPhi {
		return op == 0 && len(in.Args) > 0
	}
	if op < 0 || op >= len(in.Args) {
		return false
	}
	switch in.Args[op].(type) {
	case *ir.Instr, *ir.Param:
		return true
	default:
		return false
	}
}

// NumOperands returns the number of recorded operand slots for instruction
// in (phi events record exactly one).
func NumOperands(in *ir.Instr) int {
	if in.Op == ir.OpPhi {
		return 1
	}
	return len(in.Args)
}
