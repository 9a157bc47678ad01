package trace

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/ir"
	"repro/internal/mem"
)

// The on-disk representation references static instructions by ID, so a
// saved trace can only be loaded against the module that produced it (same
// name and instruction count — compilation is deterministic, so a rebuild
// of the same source matches). Profiling a large benchmark once and
// re-analyzing offline mirrors how the paper separates its profiling and
// modelling phases.
//
// Saved traces cross a trust boundary (the analysis daemon's trace cache),
// so Load checks every index the analyses follow before returning a trace.

// savedFormat versions the column layout below; a trace saved in any other
// layout is rejected rather than misread.
const savedFormat = 2

type savedTrace struct {
	Format     int
	ModuleName string
	NumInstrs  int
	// Instrs and Results hold one entry per event.
	Instrs  []int32
	Results []uint64
	// Ops and OpDefs concatenate every event's NumOperands(instr) operand
	// slots in event order.
	Ops    []uint64
	OpDefs []int64
	// Accesses holds one entry per load or store event, in event order.
	Accesses  []Access
	Outputs   []Output
	Snapshots map[int][]mem.VMA
	Layout    mem.Layout
}

// Save writes the trace in gob form.
func (t *Trace) Save(w io.Writer) error {
	n := t.NumEvents()
	st := savedTrace{
		Format:     savedFormat,
		ModuleName: t.Module.Name,
		NumInstrs:  t.Module.NumInstrs(),
		Instrs:     make([]int32, n),
		Results:    make([]uint64, n),
		Outputs:    t.Outputs,
		Snapshots:  t.Snapshots,
		Layout:     t.Layout,
	}
	for i := int64(0); i < n; i++ {
		e := t.events.at(i)
		st.Instrs[i] = e.instr
		st.Results[i] = e.result
		st.Ops = append(st.Ops, t.Ops(i)...)
		st.OpDefs = append(st.OpDefs, t.OpDefs(i)...)
		if e.access >= 0 {
			st.Accesses = append(st.Accesses, *t.access.at(int64(e.access)))
		}
	}
	if err := gob.NewEncoder(w).Encode(&st); err != nil {
		return fmt.Errorf("trace: encoding: %w", err)
	}
	return nil
}

// Load reads a trace saved by Save and re-binds it to m, which must be the
// module (or an identical recompilation of the module) that produced it.
// It rejects a trace whose columns disagree in length, whose events name
// instructions m lacks, whose def links point anywhere but an earlier
// event (a load's memory def: an earlier store), whose outputs lie outside
// the trace, or whose accesses name a VMA version with no snapshot.
func Load(r io.Reader, m *ir.Module) (*Trace, error) {
	var st savedTrace
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("trace: decoding: %w", err)
	}
	if st.Format != savedFormat {
		return nil, fmt.Errorf("trace: saved in format %d, want %d", st.Format, savedFormat)
	}
	if st.ModuleName != m.Name {
		return nil, fmt.Errorf("trace: saved for module %q, loading against %q", st.ModuleName, m.Name)
	}
	if st.NumInstrs != m.NumInstrs() {
		return nil, fmt.Errorf("trace: saved against %d static instructions, module has %d",
			st.NumInstrs, m.NumInstrs())
	}
	if len(st.Results) != len(st.Instrs) || len(st.OpDefs) != len(st.Ops) {
		return nil, fmt.Errorf("trace: column lengths disagree: %d instrs, %d results, %d ops, %d op defs",
			len(st.Instrs), len(st.Results), len(st.Ops), len(st.OpDefs))
	}
	rec := NewRecorder(m)
	byID := rec.t.instrs
	ops, acc := 0, 0
	for i, id := range st.Instrs {
		ev := int64(i)
		if id < 0 || int(id) >= len(byID) {
			return nil, fmt.Errorf("trace: event %d references unknown instruction %d", i, id)
		}
		in := byID[id]
		n := NumOperands(in)
		if len(st.Ops)-ops < n {
			return nil, fmt.Errorf("trace: event %d: operand columns end after %d entries", i, len(st.Ops))
		}
		for _, d := range st.OpDefs[ops : ops+n] {
			if d < NoDef || d >= ev {
				return nil, fmt.Errorf("trace: event %d: operand def %d is not an earlier event", i, d)
			}
		}
		evOps, evDefs := rec.Event(in)
		copy(evOps, st.Ops[ops:ops+n])
		copy(evDefs, st.OpDefs[ops:ops+n])
		ops += n
		rec.SetResult(ev, st.Results[i])
		if !in.Op.IsMemAccess() {
			continue
		}
		if acc == len(st.Accesses) {
			return nil, fmt.Errorf("trace: event %d: access column ends after %d entries", i, acc)
		}
		a := st.Accesses[acc]
		acc++
		if a.VMAVer != 0 && st.Snapshots[a.VMAVer] == nil {
			return nil, fmt.Errorf("trace: event %d: no snapshot of VMA version %d", i, a.VMAVer)
		}
		if d := a.MemDef; d != NoDef && (in.Op != ir.OpLoad || d < 0 || d >= ev ||
			byID[st.Instrs[d]].Op != ir.OpStore) {
			return nil, fmt.Errorf("trace: event %d: memory def %d is not an earlier store", i, d)
		}
		*rec.t.access.at(rec.accesses - 1) = a
	}
	if ops != len(st.Ops) || acc != len(st.Accesses) {
		return nil, fmt.Errorf("trace: %d operand and %d access entries for %d and %d recorded",
			len(st.Ops), len(st.Accesses), ops, acc)
	}
	for _, o := range st.Outputs {
		if o.EventIdx < 0 || o.EventIdx >= int64(len(st.Instrs)) || o.Def < NoDef || o.Def >= o.EventIdx {
			return nil, fmt.Errorf("trace: output at event %d with def %d does not fit the %d-event trace",
				o.EventIdx, o.Def, len(st.Instrs))
		}
	}
	return rec.Finish(st.Outputs, st.Snapshots, st.Layout), nil
}
