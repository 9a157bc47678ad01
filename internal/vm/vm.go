// Package vm compiles internal/ir modules to a compact register-based
// bytecode and executes it with a flat dispatch loop. It is a drop-in
// alternative to the frame-stack walker in internal/interp, which stays
// the reference semantics the differential tests compare against:
// per-dynamic-instruction event records are bit-identical to the walker's
// (same trace, DDG links, crash class, outputs) and injections hit the
// same program points. The VM also executes stepwise (Exec), capturing
// immutable States that injection runs resume from and converge against
// (exec.go); internal/snapshot chains are built on it.
//
// # Bytecode format
//
// Every static instruction compiles to exactly two 64-bit words:
//
//	w0 = op(8) << 56 | dst(14) << 42 | a(14) << 28 | b(14) << 14 | c(14)
//	w1 = src(32) << 32 | aux(32)
//
// dst/a/b/c are register-file slots, src is the instruction's LocalID
// (used for trace recording and slow-path helpers), and aux is an
// op-specific immediate or side-table index. A frame's register file is a
// flat []uint64 laid out as
//
//	[0, nLocals)            SSA results, indexed by ir.Instr.LocalID
//	[nLocals, +nParams)     parameters
//	[constBase, +nConsts)   constant pool (deduplicated raw bit patterns)
//	[globalBase, +nGlobals) global addresses (resolved per machine)
//
// with a parallel []int64 of defining dynamic-event indices, so operand
// reads are uniform one-index loads for every value kind. Jump targets
// are resolved to word offsets at compile time; the common pairs
// icmp+condbr and gep+load are fused into single dispatches (the second
// instruction of a fused pair keeps its plain encoding in its own slot,
// which the fused handler decodes; Exec never pauses between the two).
//
// Constructs the compiler cannot express (register files beyond 2^14
// slots, malformed blocks the walker would only fault on at runtime,
// unknown opcodes) fail compilation with an error; callers fall back to
// the walker, never crash.
package vm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/content"
	"repro/internal/ir"
)

// vop is a bytecode operation. The set is deliberately flatter than
// ir.Opcode: widths, predicates and element sizes move into aux so the
// dispatch switch stays small and each handler straight-line.
type vop uint8

const (
	vopInvalid vop = iota
	// Integer arithmetic and bitwise logic; aux = result width.
	vopAdd
	vopSub
	vopMul
	vopAnd
	vopOr
	vopXor
	vopShl
	vopLShr
	vopAShr
	// Division; aux = width; raises ExcArith like the walker.
	vopSDiv
	vopUDiv
	vopSRem
	vopURem
	// Float arithmetic and libm intrinsics; evaluated via the shared
	// interp helpers on fc.instrs[src] so rounding is identical.
	vopFArith
	vopMathUnary
	vopMathBinary
	// Comparisons; vopICmp aux = pred<<8 | operand width.
	vopICmp
	vopFCmp
	// Float conversions (and integer casts of unusual shape) through
	// interp.ConvertOp; aux = result mask width (0 = no mask).
	vopConvert
	// Memory; vopAlloca aux = frame offset, vopLoad aux =
	// alignCode<<16|maskWidth<<8|size, vopStore aux =
	// alignCode<<8|size (see alignCode), vopGEP aux = stride and c =
	// index width.
	vopAlloca
	vopLoad
	vopStore
	vopGEP
	// Data/control flow.
	vopSelect // aux = result mask width (0 = no mask)
	vopBr     // aux = brTab index
	vopCondBr // a = cond slot, aux = condTab index
	vopRet    // dst = 1 when a return value is present in slot a
	vopCall   // aux = callTab index
	vopPhiGroup
	// Intrinsics.
	vopMalloc
	vopFree
	vopOutput // a = value slot, aux = value width
	vopAbort
	vopDetect
	// vopTrap raises the walker's runtime fatal errors (fell-through
	// block, misplaced phi) at the exact point the walker would; aux =
	// trapTab index. It retires no event.
	vopTrap
	// Fused pairs. The handler decodes the following instruction's words
	// directly, retiring both events in walker order.
	vopICmpBr
	vopGEPLoad
	// Integer casts. vopTrunc masks to aux width (0 = plain move): trunc,
	// zext, bitcast, ptrtoint, inttoptr. vopSExt sign-extends from the
	// source width and masks: aux = from<<8 | result mask width.
	vopTrunc
	vopSExt

	numVops // one past the last opcode
)

// alignNonPow2 flags an alignCode whose alignment is not a power of two.
const alignNonPow2 = 1 << 8

const (
	slotBits = 14
	maxSlots = 1 << slotBits
)

func encWord0(op vop, dst, a, b, c int) uint64 {
	return uint64(op)<<56 | uint64(dst)<<42 | uint64(a)<<28 | uint64(b)<<14 | uint64(c)
}

func encWord1(src int, aux uint32) uint64 {
	return uint64(uint32(src))<<32 | uint64(aux)
}

// brTarget is a resolved unconditional branch.
type brTarget struct {
	pc   int32
	from *ir.Block
}

// condTarget is a resolved conditional branch.
type condTarget struct {
	tpc, fpc int32
	from     *ir.Block
}

// phiEdge gives, for one predecessor, the operand slot feeding each phi
// of the group. fatalAt >= 0 marks the first phi with no incoming value
// for this edge: the walker retires the earlier phis and then raises a
// fatal error, and the VM does the same.
type phiEdge struct {
	src     []uint16
	fatalAt int32
}

// phiGroup is a block's leading run of phis, retired atomically.
type phiGroup struct {
	phis   []*ir.Instr
	edgeOf map[*ir.Block]int32
	edges  []phiEdge
	endPC  int32
}

// callEntry is a resolved call site.
type callEntry struct {
	in     *ir.Instr
	callee *ir.Function
	fnIdx  int32
	args   []uint16
}

// Trap kinds (stable codes for the cache codec).
const (
	trapFellThrough = 1
	trapMidBlockPhi = 2
)

// trapEntry is a deferred walker fatal error.
type trapEntry struct {
	in   *ir.Instr
	kind int
}

// instrMeta carries per-instruction data used off the hot path.
type instrMeta struct {
	// argSlots are the operand slots in ir.Instr.Args order, for trace
	// recording.
	argSlots []uint16
}

// fnCode is one compiled function.
type fnCode struct {
	fn     *ir.Function
	code   []uint64
	instrs []*ir.Instr // by LocalID
	meta   []instrMeta // by LocalID

	consts  []uint64
	globals []*ir.Global

	nLocals, nParams int
	constBase        int
	globalBase       int
	nSlots           int
	frameSize        uint64
	maxPhi           int
	entryInstr       *ir.Instr // first instruction, for stack-overflow raises
	blockPC          []int32   // by block index: pc of first instruction
	brTab            []brTarget
	condTab          []condTarget
	phiTab           []phiGroup
	callTab          []callEntry
	trapTab          []trapEntry
}

// ErrUnsupported marks a module the VM cannot compile; callers fall back
// to the walker.
var ErrUnsupported = errors.New("vm: unsupported")

// Options configures compilation.
type Options struct {
	// Cache, when non-nil, stores compiled function bodies under the
	// vm-code-v1 kind keyed by content.FuncHash. Nil falls back to the
	// package default store (SetDefaultCache), which may also be nil.
	Cache *cache.Store
}

// Program is a compiled module, immutable and safe for concurrent runs.
type Program struct {
	mod   *ir.Module
	fns   []*fnCode
	fnIdx map[*ir.Function]int32

	// CompileNanos is the wall time spent compiling (cache lookups
	// included); CodeBytes the bytecode footprint in bytes; CacheHits and
	// CacheMisses the per-function cache outcomes.
	CompileNanos int64
	CodeBytes    int64
	CacheHits    int
	CacheMisses  int
}

// Module returns the module the program was compiled from.
func (p *Program) Module() *ir.Module { return p.mod }

// Compile translates every function of m to bytecode. Any construct the
// VM cannot express fails the whole compilation with an error wrapping
// ErrUnsupported where appropriate; the module is untouched either way,
// so callers can fall back to the walker.
func Compile(m *ir.Module, opts Options) (*Program, error) {
	start := time.Now()
	c := opts.Cache
	if c == nil {
		c = DefaultCache()
	}
	p := &Program{mod: m, fns: make([]*fnCode, len(m.Funcs)), fnIdx: make(map[*ir.Function]int32, len(m.Funcs))}
	for i, fn := range m.Funcs {
		p.fnIdx[fn] = int32(i)
	}
	for i, fn := range m.Funcs {
		fc, hit, err := compileFn(fn, c)
		if err != nil {
			noteFallback("compile")
			return nil, fmt.Errorf("vm: compiling %s: %w", fn.Name, err)
		}
		if hit {
			p.CacheHits++
		} else {
			p.CacheMisses++
		}
		p.fns[i] = fc
		p.CodeBytes += int64(len(fc.code)) * 8
	}
	// Link: resolve callee functions to program indices.
	for _, fc := range p.fns {
		for ci := range fc.callTab {
			e := &fc.callTab[ci]
			idx, ok := p.fnIdx[e.callee]
			if !ok {
				noteFallback("compile")
				return nil, fmt.Errorf("%w: call to function outside module", ErrUnsupported)
			}
			e.fnIdx = idx
		}
	}
	p.CompileNanos = time.Since(start).Nanoseconds()
	noteCompile(p)
	return p, nil
}

// compileFn compiles one function, consulting the cache first.
func compileFn(fn *ir.Function, c *cache.Store) (fc *fnCode, cacheHit bool, err error) {
	var key string
	if c != nil {
		key = content.FuncHash(fn)
		if data, ok := c.Get(cacheKind, key); ok {
			if fc, err := decodeFnCode(fn, data); err == nil {
				return fc, true, nil
			}
			// Undecodable entries (format drift, corruption below the
			// cache's own checksum) recompile and overwrite.
		}
	}
	fc, err = newFnCompiler(fn).compile()
	if err != nil {
		return nil, false, err
	}
	if c != nil {
		_ = c.Put(cacheKind, key, encodeFnCode(fc))
	}
	return fc, false, nil
}
