package vm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/interp"
	"repro/internal/ir"
)

// cacheKind is the internal/cache kind for compiled function bodies,
// keyed by content.FuncHash. The function hash covers the printed IR
// (types, globals by name, callees by name), so an entry can only be
// replayed against a function whose code it was compiled from; decode
// still validates shapes and treats any mismatch as a miss.
const cacheKind = "vm-code-v1"

// codecVersion guards the serialized layout; bump on format changes so
// old entries read as misses and recompile.
const codecVersion = 3

type enc struct{ b []byte }

func (e *enc) u(v uint64)   { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i(v int64)    { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) f64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) str(s string) {
	e.u(uint64(len(s)))
	e.b = append(e.b, s...)
}

type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() uint64 {
	if d.err == nil {
		d.err = fmt.Errorf("vm: truncated cache entry")
	}
	return 0
}

func (d *dec) u() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return d.fail()
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) i() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) f64() uint64 {
	if len(d.b) < 8 {
		return d.fail()
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) str() string {
	n := d.u()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// count reads a length and bounds it against the remaining input so a
// corrupt entry cannot drive a huge allocation.
func (d *dec) count(max int) int {
	n := d.u()
	if d.err != nil || n > uint64(max) {
		d.fail()
		return 0
	}
	return int(n)
}

func encodeFnCode(fc *fnCode) []byte {
	e := &enc{b: make([]byte, 0, 64+len(fc.code)*9)}
	e.u(codecVersion)
	e.u(uint64(fc.nLocals))
	e.u(uint64(fc.nParams))
	e.u(uint64(fc.maxPhi))

	e.u(uint64(len(fc.consts)))
	for _, v := range fc.consts {
		e.f64(v)
	}
	e.u(uint64(len(fc.globals)))
	for _, g := range fc.globals {
		e.str(g.Name)
	}
	e.u(uint64(len(fc.code)))
	for _, w := range fc.code {
		e.f64(w)
	}
	e.u(uint64(len(fc.blockPC)))
	for _, pc := range fc.blockPC {
		e.u(uint64(pc))
	}
	e.u(uint64(len(fc.brTab)))
	for _, t := range fc.brTab {
		e.u(uint64(t.pc))
		e.u(uint64(t.from.Index))
	}
	e.u(uint64(len(fc.condTab)))
	for _, t := range fc.condTab {
		e.u(uint64(t.tpc))
		e.u(uint64(t.fpc))
		e.u(uint64(t.from.Index))
	}
	e.u(uint64(len(fc.phiTab)))
	for _, g := range fc.phiTab {
		e.u(uint64(len(g.phis)))
		for _, in := range g.phis {
			e.u(uint64(in.LocalID))
		}
		e.u(uint64(g.endPC))
		e.u(uint64(len(g.edges)))
		// edgeOf in insertion order: recover the pred for each edge index.
		preds := make([]*ir.Block, len(g.edges))
		for p, ei := range g.edgeOf {
			preds[ei] = p
		}
		for ei, edge := range g.edges {
			e.u(uint64(preds[ei].Index))
			e.i(int64(edge.fatalAt))
			e.u(uint64(len(edge.src)))
			for _, s := range edge.src {
				e.u(uint64(s))
			}
		}
	}
	e.u(uint64(len(fc.callTab)))
	for _, ce := range fc.callTab {
		e.u(uint64(ce.in.LocalID))
		e.str(ce.callee.Name)
		e.u(uint64(len(ce.args)))
		for _, s := range ce.args {
			e.u(uint64(s))
		}
	}
	e.u(uint64(len(fc.trapTab)))
	for _, t := range fc.trapTab {
		e.u(uint64(t.in.LocalID))
		e.u(uint64(t.kind))
	}
	for _, mt := range fc.meta {
		e.u(uint64(len(mt.argSlots)))
		for _, s := range mt.argSlots {
			e.u(uint64(s))
		}
	}
	return e.b
}

// decodeFnCode rebuilds a compiled function from a cache entry,
// re-linking instructions by LocalID, blocks by index, globals and
// callees by name. Any shape mismatch against fn fails the decode (the
// caller recompiles).
func decodeFnCode(fn *ir.Function, data []byte) (*fnCode, error) {
	d := &dec{b: data}
	if d.u() != codecVersion {
		return nil, fmt.Errorf("vm: cache entry version mismatch")
	}
	nLocals := int(d.u())
	nParams := int(d.u())
	maxPhi := int(d.u())
	if d.err != nil || nLocals != fn.NumLocals() || nParams != len(fn.Params) || len(fn.Blocks) == 0 {
		return nil, fmt.Errorf("vm: cache entry shape mismatch for %s", fn.Name)
	}
	size, _ := interp.ComputeFrameLayout(fn)
	fc := &fnCode{
		fn:        fn,
		instrs:    make([]*ir.Instr, nLocals),
		meta:      make([]instrMeta, nLocals),
		nLocals:   nLocals,
		nParams:   nParams,
		constBase: nLocals + nParams,
		frameSize: size,
		maxPhi:    maxPhi,
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.LocalID >= nLocals {
				return nil, fmt.Errorf("vm: unfinished module")
			}
			fc.instrs[in.LocalID] = in
		}
	}
	if len(fn.Entry().Instrs) == 0 {
		return nil, fmt.Errorf("vm: empty entry block")
	}
	fc.entryInstr = fn.Entry().Instrs[0]

	nConsts := d.count(len(data))
	fc.consts = make([]uint64, nConsts)
	for i := range fc.consts {
		fc.consts[i] = d.f64()
	}
	fc.globalBase = fc.constBase + nConsts
	mod := fn.Parent
	if mod == nil {
		return nil, fmt.Errorf("vm: detached function")
	}
	nGlobals := d.count(len(data))
	fc.globals = make([]*ir.Global, nGlobals)
	for i := range fc.globals {
		g := mod.Global(d.str())
		if g == nil {
			return nil, fmt.Errorf("vm: cached global not in module")
		}
		fc.globals[i] = g
	}
	fc.nSlots = fc.globalBase + nGlobals
	if fc.nSlots > maxSlots {
		return nil, fmt.Errorf("vm: cached slot count out of range")
	}

	nCode := d.count(len(data))
	fc.code = make([]uint64, nCode)
	for i := range fc.code {
		fc.code[i] = d.f64()
	}
	nBlocks := d.count(len(data))
	if d.err == nil && nBlocks != len(fn.Blocks) {
		return nil, fmt.Errorf("vm: cached block count mismatch")
	}
	fc.blockPC = make([]int32, nBlocks)
	for i := range fc.blockPC {
		fc.blockPC[i] = int32(d.u())
	}
	blockAt := func(idx uint64) (*ir.Block, error) {
		if idx >= uint64(len(fn.Blocks)) {
			return nil, fmt.Errorf("vm: cached block index out of range")
		}
		return fn.Blocks[idx], nil
	}
	instrAt := func(idx uint64) (*ir.Instr, error) {
		if idx >= uint64(nLocals) || fc.instrs[idx] == nil {
			return nil, fmt.Errorf("vm: cached instruction index out of range")
		}
		return fc.instrs[idx], nil
	}

	fc.brTab = make([]brTarget, d.count(len(data)))
	for i := range fc.brTab {
		pc := int32(d.u())
		from, err := blockAt(d.u())
		if err != nil {
			return nil, err
		}
		fc.brTab[i] = brTarget{pc: pc, from: from}
	}
	fc.condTab = make([]condTarget, d.count(len(data)))
	for i := range fc.condTab {
		tpc := int32(d.u())
		fpc := int32(d.u())
		from, err := blockAt(d.u())
		if err != nil {
			return nil, err
		}
		fc.condTab[i] = condTarget{tpc: tpc, fpc: fpc, from: from}
	}
	fc.phiTab = make([]phiGroup, d.count(len(data)))
	for i := range fc.phiTab {
		g := phiGroup{edgeOf: make(map[*ir.Block]int32)}
		g.phis = make([]*ir.Instr, d.count(len(data)))
		for j := range g.phis {
			in, err := instrAt(d.u())
			if err != nil {
				return nil, err
			}
			g.phis[j] = in
		}
		g.endPC = int32(d.u())
		g.edges = make([]phiEdge, d.count(len(data)))
		for ei := range g.edges {
			pred, err := blockAt(d.u())
			if err != nil {
				return nil, err
			}
			g.edgeOf[pred] = int32(ei)
			edge := phiEdge{fatalAt: int32(d.i())}
			edge.src = make([]uint16, d.count(len(data)))
			for k := range edge.src {
				edge.src[k] = uint16(d.u())
			}
			g.edges[ei] = edge
		}
		fc.phiTab[i] = g
	}
	fc.callTab = make([]callEntry, d.count(len(data)))
	for i := range fc.callTab {
		in, err := instrAt(d.u())
		if err != nil {
			return nil, err
		}
		callee := mod.Func(d.str())
		if callee == nil {
			return nil, fmt.Errorf("vm: cached callee not in module")
		}
		ce := callEntry{in: in, callee: callee}
		ce.args = make([]uint16, d.count(len(data)))
		for k := range ce.args {
			ce.args[k] = uint16(d.u())
		}
		fc.callTab[i] = ce
	}
	fc.trapTab = make([]trapEntry, d.count(len(data)))
	for i := range fc.trapTab {
		in, err := instrAt(d.u())
		if err != nil {
			return nil, err
		}
		fc.trapTab[i] = trapEntry{in: in, kind: int(d.u())}
	}
	for i := range fc.meta {
		slots := make([]uint16, d.count(len(data)))
		for k := range slots {
			slots[k] = uint16(d.u())
		}
		fc.meta[i] = instrMeta{argSlots: slots}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("vm: trailing bytes in cache entry")
	}
	if err := fc.validate(); err != nil {
		return nil, err
	}
	return fc, nil
}

// validate checks a decoded function against everything the dispatch
// loop indexes without a bounds test of its own, so a bad entry reads as
// a cache miss instead of panicking mid-run: every slot field inside the
// register file, every pc an in-range instruction boundary, every side
// table index in its table, no straight-line dispatch running off the
// end of the code, and every code word naming an instruction of its own
// kind with the memory aux that instruction implies (the walker's
// helpers and the trace recorder act on the instruction, not the word).
func (fc *fnCode) validate() error {
	bad := func(what string) error { return fmt.Errorf("vm: cached %s out of range", what) }
	nCode := int32(len(fc.code))
	pcOK := func(pc int32) bool { return pc >= 0 && pc < nCode && pc%2 == 0 }
	slotOK := func(s int) bool { return s < fc.nSlots }
	if nCode == 0 || nCode%2 != 0 {
		return bad("code length")
	}
	if fc.maxPhi < 0 || fc.maxPhi > fc.nLocals {
		return bad("phi group bound")
	}
	for _, in := range fc.instrs {
		if in == nil {
			return bad("instruction table")
		}
	}
	for _, pc := range fc.blockPC {
		if !pcOK(pc) {
			return bad("block pc")
		}
	}
	for _, t := range fc.brTab {
		if !pcOK(t.pc) {
			return bad("branch target")
		}
	}
	for _, t := range fc.condTab {
		if !pcOK(t.tpc) || !pcOK(t.fpc) {
			return bad("branch target")
		}
	}
	for _, g := range fc.phiTab {
		n := len(g.phis)
		if n == 0 || n > fc.maxPhi || !pcOK(g.endPC) {
			return bad("phi group")
		}
		for _, in := range g.phis {
			if in.Op != ir.OpPhi {
				return bad("phi group member")
			}
		}
		for _, e := range g.edges {
			want := n
			if e.fatalAt >= 0 {
				want = int(e.fatalAt)
			}
			if e.fatalAt < -1 || int(e.fatalAt) >= n || len(e.src) != want {
				return bad("phi edge")
			}
			for _, s := range e.src {
				if !slotOK(int(s)) {
					return bad("phi edge slot")
				}
			}
		}
	}
	for _, ce := range fc.callTab {
		if ce.in.Op != ir.OpCall || len(ce.args) != len(ce.callee.Params) {
			return bad("call site")
		}
		for _, s := range ce.args {
			if !slotOK(int(s)) {
				return bad("call argument slot")
			}
		}
	}
	for i, mt := range fc.meta {
		if len(mt.argSlots) != len(fc.instrs[i].Args) {
			return bad("operand list")
		}
		for _, s := range mt.argSlots {
			if !slotOK(int(s)) {
				return bad("operand slot")
			}
		}
	}
	opAt := func(pc int32) vop { return vop(fc.code[pc] >> 56) }
	for pc := int32(0); pc < nCode; pc += 2 {
		w0, w1 := fc.code[pc], fc.code[pc+1]
		op := vop(w0 >> 56)
		dst := int(w0 >> 42 & (maxSlots - 1))
		a := int(w0 >> 28 & (maxSlots - 1))
		b := int(w0 >> 14 & (maxSlots - 1))
		c := int(w0 & (maxSlots - 1))
		src := int(uint32(w1 >> 32))
		aux := uint32(w1)
		if op == vopInvalid || op >= numVops {
			return bad("opcode")
		}
		if src >= fc.nLocals {
			return bad("instruction index")
		}
		if !slotOK(a) || !slotOK(b) || (op != vopRet && !slotOK(dst)) || (op == vopRet && dst > 1) {
			return bad("slot")
		}
		if op == vopGEP || op == vopGEPLoad {
			if c < 1 || c > 64 {
				return bad("gep index width")
			}
		} else if !slotOK(c) {
			return bad("slot")
		}
		in := fc.instrs[src]
		ok := vopFor(in) == op
		next := pc + 2 // where straight-line execution continues
		switch op {
		case vopLoad, vopStore:
			ok = ok && aux == memAux(in) // access size and alignment divisor
		case vopBr:
			ok, next = ok && int(aux) < len(fc.brTab), -1
		case vopCondBr:
			ok, next = ok && int(aux) < len(fc.condTab), -1
		case vopCall:
			ok = ok && int(aux) < len(fc.callTab)
		case vopPhiGroup:
			ok, next = ok && int(aux) < len(fc.phiTab), -1
		case vopTrap: // any instruction can trap
			ok, next = int(aux) < len(fc.trapTab), -1
		case vopRet, vopAbort, vopDetect:
			next = -1
		case vopICmpBr:
			ok, next = in.Op == ir.OpICmp && pc+2 < nCode && opAt(pc+2) == vopCondBr, -1
		case vopGEPLoad:
			ok, next = in.Op == ir.OpGEP && pc+2 < nCode && opAt(pc+2) == vopLoad, pc+4
		}
		if !ok {
			return bad(fmt.Sprintf("word at pc %d", pc))
		}
		if next >= nCode {
			return bad("fall-through")
		}
	}
	return nil
}
