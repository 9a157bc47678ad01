package vm

import (
	"fmt"
	"math"

	"repro/internal/interp"
	"repro/internal/trace"
)

// convState is the machine-side cursor over golden checkpoints,
// mirroring the walker's.
type convState struct {
	golden  *interp.Result
	next    func(after int64) *interp.State
	pending *interp.State
}

// Resume continues execution of a walker-captured snapshot on the VM.
// The state's frames are mapped onto bytecode program counters; the run
// executes on a fresh COW fork and is bit-identical to interp.Resume
// with the same options. States the bytecode cannot represent (or that
// were captured from a different module than the program was compiled
// from) report an error wrapping ErrUnsupported before any execution,
// so callers can retry on the walker; the snapshot itself is never
// mutated by either path.
func (p *Program) Resume(st *interp.State, opts interp.ResumeOptions) (*interp.Result, error) {
	if st.Module() != p.mod {
		return nil, fmt.Errorf("%w: state captured from module %q, program compiled from %q",
			ErrUnsupported, st.Module().Name, p.mod.Name)
	}
	if opts.Injection != nil && opts.Injection.Event < st.Event() {
		return nil, fmt.Errorf("interp: injection event %d precedes snapshot event %d",
			opts.Injection.Event, st.Event())
	}
	cfg := st.Config()
	cfg.Injection = opts.Injection
	if opts.MaxDynInstrs > 0 {
		cfg.MaxDynInstrs = opts.MaxDynInstrs
	}

	// Map every captured frame before touching anything mutable, so an
	// unsupported state costs nothing and the caller's fallback starts
	// from an untouched snapshot.
	frames := make([]*vframe, st.NumFrames())
	for i := range frames {
		fv := st.Frame(i)
		fnIdx, ok := p.fnIdx[fv.Fn]
		if !ok {
			return nil, fmt.Errorf("%w: frame function not in compiled program", ErrUnsupported)
		}
		fc := p.fns[fnIdx]
		pc, err := fc.pcFor(fv.Blk, fv.II)
		if err != nil {
			return nil, err
		}
		if len(fv.Regs) != fc.nLocals || len(fv.Params) != fc.nParams {
			return nil, fmt.Errorf("%w: captured frame shape mismatch", ErrUnsupported)
		}
		fr := &vframe{
			fc:        fc,
			fnIdx:     fnIdx,
			regs:      make([]uint64, fc.nSlots),
			defs:      make([]int64, fc.nSlots),
			base:      fv.Base,
			savedSP:   fv.SavedSP,
			pc:        pc,
			prev:      fv.Prev,
			callInstr: fv.CallInstr,
			callIdx:   fv.CallIdx,
		}
		copy(fr.regs, fv.Regs)
		copy(fr.defs, fv.Defs)
		for j := 0; j < fc.nParams; j++ {
			fr.regs[fc.nLocals+j] = fv.Params[j]
			fr.defs[fc.nLocals+j] = fv.ParamDefs[j]
		}
		for j := fc.constBase; j < fc.nSlots; j++ {
			fr.defs[j] = trace.NoDef
		}
		frames[i] = fr
	}

	m := newMachine(p, cfg, st.ForkMem(), st.GlobalAddrs())
	m.stack = frames
	m.dyn = st.Event()
	m.outputs = append([]trace.Output(nil), st.OutputsView()...)
	for _, fr := range frames {
		copy(fr.regs[fr.fc.constBase:], m.fixedFor(fr.fnIdx))
	}
	if c := opts.Convergence; c != nil && c.Golden != nil && c.Next != nil && !c.Golden.Hang {
		// A hung golden run has no final state to converge to, exactly
		// as in interp.Resume.
		m.conv = &convState{golden: c.Golden, next: c.Next}
		m.convAt = m.dyn
	}
	m.run()
	return m.finish()
}

// tryConverge replicates the walker's convergence fast-forward: when the
// machine sits exactly on a golden checkpoint event and its full state
// equals that checkpoint, splice the golden tail and halt. The VM checks
// between dispatches; a checkpoint landing between the halves of a fused
// pair is skipped, which is safe — a deterministic machine whose state
// matched at the earlier event produces the identical future, so only
// how much of it is executed (not any record content) can differ.
//
// The dispatch loop calls it only once dyn reaches convAt, which every
// "not yet" answer advances: to the pending checkpoint's event, to the
// next event after a mismatch, or to never while an injection is still
// to apply (injectBits re-arms it). The calls it skips are exactly those
// that would have returned false without side effects.
func (m *machine) tryConverge() bool {
	if m.inj != nil && !m.inj.Applied {
		m.convAt = math.MaxInt64
		return false
	}
	c := m.conv
	for {
		if c.pending == nil {
			c.pending = c.next(m.dyn - 1)
			if c.pending == nil {
				m.conv = nil
				m.convAt = math.MaxInt64
				return false
			}
		}
		if c.pending.Event() >= m.dyn {
			break
		}
		c.pending = nil
	}
	if c.pending.Event() > m.dyn {
		m.convAt = c.pending.Event()
		return false
	}
	st := c.pending
	c.pending = nil
	if !m.stateEqual(st) {
		m.convAt = m.dyn + 1
		return false
	}
	m.outputs = append(m.outputs, c.golden.Outputs[len(st.OutputsView()):]...)
	m.dyn = c.golden.DynInstrs
	m.exc = c.golden.Exception
	m.converged = true
	m.stack = m.stack[:0]
	return true
}

// stateEqual reports whether the live VM is bit-identical to a
// walker-captured state. Top frames compare first, as in the walker.
func (m *machine) stateEqual(st *interp.State) bool {
	if len(m.stack) != st.NumFrames() {
		return false
	}
	for i := len(m.stack) - 1; i >= 0; i-- {
		if !frameEqualView(m.stack[i], st.Frame(i)) {
			return false
		}
	}
	return m.as.Equal(st.MemRef())
}

// frameEqualView compares a VM frame to a walker FrameView on exactly
// the fields interp's frameEqual compares; the instruction cursor is
// compared by mapping the walker position to a pc.
func frameEqualView(fr *vframe, fv interp.FrameView) bool {
	fc := fr.fc
	if fc.fn != fv.Fn || fr.prev != fv.Prev ||
		fr.base != fv.Base || fr.savedSP != fv.SavedSP ||
		fr.callInstr != fv.CallInstr || fr.callIdx != fv.CallIdx {
		return false
	}
	pc, err := fc.pcFor(fv.Blk, fv.II)
	if err != nil || pc != fr.pc {
		return false
	}
	if len(fv.Regs) != fc.nLocals || len(fv.Params) != fc.nParams {
		return false
	}
	for i := 0; i < fc.nLocals; i++ {
		if fr.regs[i] != fv.Regs[i] || fr.defs[i] != fv.Defs[i] {
			return false
		}
	}
	for i := 0; i < fc.nParams; i++ {
		if fr.regs[fc.nLocals+i] != fv.Params[i] || fr.defs[fc.nLocals+i] != fv.ParamDefs[i] {
			return false
		}
	}
	return true
}
