// Stepwise execution: a VM machine can pause at chosen dynamic-event
// boundaries and capture an immutable State — frames, program counters
// and a copy-on-write fork of the address space — from which any number
// of runs later resume, each on its own fork. A resumed run is
// bit-identical to a from-scratch run of the same configuration: the
// machine is deterministic, so replaying the prefix and restoring it are
// indistinguishable.
package vm

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Exec is a stepwise execution handle: it advances a machine to chosen
// dynamic-event boundaries and captures snapshots there. Record mode is
// not supported (snapshots exist to avoid re-executing work; a recording
// run needs every event anyway), and injection happens at Resume.
type Exec struct {
	m *machine
}

// NewExec prepares the program for stepwise execution under cfg. The
// entry frame is pushed; no instructions have executed yet (event 0).
func (p *Program) NewExec(cfg interp.Config) (*Exec, error) {
	if cfg.Record {
		return nil, fmt.Errorf("vm: Exec does not support Record mode")
	}
	if cfg.Injection != nil {
		return nil, fmt.Errorf("vm: Exec does not support injection; inject via Resume")
	}
	m, err := p.start(cfg)
	if err != nil {
		return nil, err
	}
	return &Exec{m: m}, nil
}

// Advance executes until the next dispatch would retire an event past
// stop, pausing at an event <= stop. A fused pair and a phi group are one
// dispatch each and retire all their events together, so the pause may
// undershoot stop. It returns true while the program is still live and
// false once it terminated (return, exception, hang or fatal error).
func (e *Exec) Advance(stop int64) bool {
	m := e.m
	m.paused = false
	m.stop = stop
	// The gate must fire for any dispatch whose cost could cross stop.
	m.convAt = stop + 1 - m.maxCost
	m.run()
	return m.paused
}

// Event returns the machine's current dynamic-event position.
func (e *Exec) Event() int64 { return e.m.dyn }

// Err returns the harness-level fatal error, if any.
func (e *Exec) Err() error { return e.m.fatal }

// DirtyPages returns the cumulative count of pages the execution has
// privately materialized or copy-on-write faulted; the delta between two
// captures is the page cost of the second snapshot.
func (e *Exec) DirtyPages() int64 { return e.m.as.DirtyPages() }

// Capture snapshots the paused machine. The returned State is immutable
// and safe for concurrent Resume calls; the capture costs O(frame
// registers + mapped-page pointers) — page data is shared copy-on-write.
func (e *Exec) Capture() *State {
	m := e.m
	frames := make([]vframe, len(m.stack))
	for i, fr := range m.stack {
		// The constant/global tail is fixed per machine; Resume rebuilds
		// it from fixedFor instead of storing it per capture.
		n := fr.fc.constBase
		frames[i] = *fr
		frames[i].regs = slices.Clone(fr.regs[:n])
		frames[i].defs = slices.Clone(fr.defs[:n])
	}
	return &State{
		prog:    m.prog,
		cfg:     m.cfg,
		event:   m.dyn,
		frames:  frames,
		as:      m.as.Fork(),
		outputs: slices.Clone(m.outputs),
		globals: m.globals,
	}
}

// State is a captured point of one VM execution: every frame's locals and
// parameters with their defining events, its pc and continuation (base,
// saved SP, predecessor block, pending call), the outputs emitted so far,
// and a frozen COW fork of the simulated address space (stack pointer,
// heap break and VMA-table history included). States are immutable;
// Resume forks them.
type State struct {
	prog  *Program
	cfg   interp.Config
	event int64
	// frames hold registers [0, constBase) only.
	frames  []vframe
	as      *mem.AddressSpace
	outputs []trace.Output
	globals map[*ir.Global]uint64
}

// Event returns the dynamic-event index the state was captured at: the
// number of events retired before the pause.
func (st *State) Event() int64 { return st.event }

// ResumeOptions controls one resumed run.
type ResumeOptions struct {
	// Injection, when non-nil, corrupts one register definition; its
	// Event must be at or after the state's capture event (earlier events
	// already executed, uncorrupted, inside the snapshot).
	Injection *interp.Injection
	// Convergence, when non-nil, allows the run to fast-forward to the
	// golden result once its machine state is bit-identical to a golden
	// checkpoint.
	Convergence *Convergence
}

// Convergence lets a resumed faulty run stop early: after the injection
// applies, whenever execution reaches the event index of a golden
// checkpoint, the machine compares its complete state (frames, registers,
// memory) against that checkpoint. Equality means the fault's effects are
// gone — a deterministic machine in an identical state produces an
// identical future — so the run splices the golden tail (remaining
// outputs, exception, final event count) instead of executing it. COW
// page sharing makes the comparison cost proportional to the pages that
// diverged, not to total memory.
type Convergence struct {
	// Golden is the fault-free run of the same configuration.
	Golden *interp.Result
	// Next returns the first golden checkpoint with Event > after, or nil
	// when no further checkpoint exists.
	Next func(after int64) *State
}

// convState is the machine-side cursor over golden checkpoints.
type convState struct {
	golden  *interp.Result
	next    func(after int64) *State
	pending *State
}

// Resume continues execution from a captured state on a fresh COW fork.
// The run inherits the capture-time configuration (layout, alignment,
// hang budget, entry) and is bit-identical to a from-scratch run with the
// same injection: same outputs, exception, hang flag and final event
// position.
func (p *Program) Resume(st *State, opts ResumeOptions) (*interp.Result, error) {
	if st.prog != p {
		return nil, fmt.Errorf("vm: state captured from module %q, program compiled from %q",
			st.prog.mod.Name, p.mod.Name)
	}
	if opts.Injection != nil && opts.Injection.Event < st.event {
		return nil, fmt.Errorf("vm: injection event %d precedes snapshot event %d",
			opts.Injection.Event, st.event)
	}
	cfg := st.cfg
	cfg.Injection = opts.Injection
	m := newMachine(p, cfg, st.as.Fork(), st.globals)
	m.stack = make([]*vframe, len(st.frames))
	for i := range st.frames {
		sf := &st.frames[i]
		fr := m.newFrame(sf.fnIdx)
		regs, defs := fr.regs, fr.defs
		*fr = *sf
		fr.regs, fr.defs = regs, defs
		copy(regs, sf.regs)
		copy(defs, sf.defs)
		m.stack[i] = fr
	}
	m.dyn = st.event
	m.outputs = slices.Clone(st.outputs)
	if c := opts.Convergence; c != nil && c.Golden != nil && c.Next != nil && !c.Golden.Hang {
		// A hung golden run has no final state to converge to: the faulty
		// run's budget would run past the golden horizon.
		m.conv = &convState{golden: c.Golden, next: c.Next}
		m.convAt = m.dyn
	}
	m.run()
	return m.finish()
}

// checkpoint is the slow path behind the dispatch loop's convAt gate: a
// pause check for Exec.Advance, a convergence check for a resumed run.
// It returns true when the machine must stop before dispatching pc.
func (m *machine) checkpoint(fc *fnCode, pc int32) bool {
	if m.stop >= 0 {
		if m.dyn+dispatchCost(fc, pc) <= m.stop {
			return false
		}
		m.paused = true
		return true
	}
	return m.tryConverge()
}

// dispatchCost returns how many events the dispatch at pc retires: the
// whole group for a phi group (the walker's atomic unit), two for a fused
// pair, none for a trap.
func dispatchCost(fc *fnCode, pc int32) int64 {
	switch vop(fc.code[pc] >> 56) {
	case vopPhiGroup:
		return int64(len(fc.phiTab[uint32(fc.code[pc+1])].phis))
	case vopICmpBr, vopGEPLoad:
		return 2
	case vopTrap:
		return 0
	}
	return 1
}

// tryConverge implements the convergence fast-forward: when the machine
// sits exactly on a golden checkpoint event and its full state equals
// that checkpoint, splice the golden tail and halt. Checkpoints are
// captured between dispatches, so every one is reachable.
//
// The dispatch loop calls it only once dyn reaches convAt, which every
// "not yet" answer advances: to the pending checkpoint's event, to the
// next event after a mismatch, or to never while an injection is still
// to apply (injectBits re-arms it). The calls it skips are exactly those
// that would have returned false without side effects.
func (m *machine) tryConverge() bool {
	if m.inj != nil && !m.inj.Applied {
		// Before the fault applies the run IS the golden prefix; comparing
		// now would trivially "converge" and skip the injection.
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
		if c.pending.event >= m.dyn {
			break
		}
		// A multi-event dispatch jumped over the checkpoint.
		c.pending = nil
	}
	if c.pending.event > m.dyn {
		m.convAt = c.pending.event
		return false
	}
	st := c.pending
	c.pending = nil
	if !m.stateEqual(st) {
		m.convAt = m.dyn + 1
		return false
	}
	m.outputs = append(m.outputs, c.golden.Outputs[len(st.outputs):]...)
	m.dyn = c.golden.DynInstrs
	m.exc = c.golden.Exception
	m.converged = true
	m.stack = m.stack[:0]
	return true
}

// stateEqual reports whether the live machine is bit-identical to a
// captured state: same call stack (functions, pcs, registers, dynamic
// defs, pending call sites) and same address space. Top frames compare
// first — they diverge soonest in a faulty run.
func (m *machine) stateEqual(st *State) bool {
	if len(m.stack) != len(st.frames) {
		return false
	}
	for i := len(m.stack) - 1; i >= 0; i-- {
		fr, sf := m.stack[i], &st.frames[i]
		if fr.fnIdx != sf.fnIdx || fr.pc != sf.pc || fr.prev != sf.prev ||
			fr.base != sf.base || fr.savedSP != sf.savedSP ||
			fr.callInstr != sf.callInstr || fr.callIdx != sf.callIdx ||
			!slices.Equal(fr.regs[:len(sf.regs)], sf.regs) ||
			!slices.Equal(fr.defs[:len(sf.defs)], sf.defs) {
			return false
		}
	}
	return m.as.Equal(st.as)
}
