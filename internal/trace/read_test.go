package trace_test

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/vm"
)

// snapshotEvents copies every accessor's view of every event.
func snapshotEvents(tr *trace.Trace) (ids []int, ops []uint64, defs []int64, results []uint64, accs []trace.Access) {
	for i := int64(0); i < tr.NumEvents(); i++ {
		ids = append(ids, tr.Instr(i).ID)
		ops = append(ops, tr.Ops(i)...)
		defs = append(defs, tr.OpDefs(i)...)
		results = append(results, tr.Result(i))
		if tr.IsMemAccess(i) {
			accs = append(accs, tr.Mem(i))
		}
	}
	return
}

// TestConcurrentReaders reads one shared trace from several goroutines at
// once, as the analysis daemon and concurrent analyses of one trace do:
// every accessor and Save must be safe without locking (run under -race)
// and every reader must see the same events.
func TestConcurrentReaders(t *testing.T) {
	b, ok := bench.Get("lud")
	if !ok {
		t.Fatal("no lud benchmark")
	}
	prog, err := vm.Compile(b.MustModule(1), vm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(interp.Config{Record: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	ids, ops, defs, results, accs := snapshotEvents(tr)

	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan string, 2*readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gi, gops, gd, gr, ga := snapshotEvents(tr)
			if !slices.Equal(gi, ids) || !slices.Equal(gops, ops) || !slices.Equal(gd, defs) ||
				!slices.Equal(gr, results) || !slices.Equal(ga, accs) {
				errs <- "concurrent reader saw different events"
			}
			var buf bytes.Buffer
			if err := tr.Save(&buf); err != nil {
				errs <- err.Error()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
