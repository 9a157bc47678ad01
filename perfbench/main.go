// Command perfbench is the repository's end-to-end, layer-by-layer
// benchmark. It runs one named workload for a fixed time and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (see BENCHMARK.json);
// with --trace 1 the workload is run again with spans recorded around the
// calls into each layer, and the metrics are the per-layer ones plus the
// tracing overhead. Human-readable detail goes to standard error.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload analyze-suite --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/ir"
)

// outcome is what a workload hands back to main.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	metrics   []metric
	layers    layerSet // a traced run's per-layer values
	spans     *recorder
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

// fail records a failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// opts are the command-line settings every workload receives.
type opts struct {
	seed    int64
	seconds float64
	trace   bool
}

var workloads = map[string]func(opts) *outcome{
	"analyze-suite": runAnalyzeSuite,
	"campaign-ci":   runCampaignCI,
	"serve-mix":     runServeMix,
}

func main() {
	workload := flag.String("workload", "", "workload name: analyze-suite, campaign-ci or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	spansDir := flag.String("spans-out", ".bench_build/spans", "directory the traced run writes its span tree to")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload analyze-suite|campaign-ci|serve-mix, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	o := run(opts{seed: *seed, seconds: *seconds, trace: *trace == 1})
	declared := sp.EndToEnd
	if *trace == 1 {
		declared = sp.PerLayer
		o.addLayers(declared)
	}
	o.matchDeclared(declared)
	if o.spans != nil {
		path, err := o.spans.write(*spansDir, *workload, *seed)
		if err != nil {
			o.fail("write spans: %v", err)
		} else {
			fmt.Fprintf(os.Stderr, "span tree written to %s\n", path)
		}
		fmt.Fprint(os.Stderr, o.spans.selfTable())
	}
	printTable(*workload, o)
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "FAILED:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(o.metrics))
	for _, m := range o.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			o.fail("metric %s is not a finite number", m.name)
			v = 0
		}
		ms[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// specFile is the benchmark's declaration, read from the repository root:
// the metrics a run reports are exactly the ones it declares.
const specFile = "BENCHMARK.json"

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no end_to_end or no per_layer metrics", path)
	}
	return &sp, nil
}

// matchDeclared fails the run unless it reports every declared metric, each
// once and in its declared unit, and nothing else.
func (o *outcome) matchDeclared(declared []declaredMetric) {
	want := map[string]string{}
	for _, d := range declared {
		want[d.Name] = d.Unit
	}
	seen := map[string]bool{}
	for _, m := range o.metrics {
		unit, ok := want[m.name]
		switch {
		case !ok:
			o.fail("metric %q is not declared in %s", m.name, specFile)
		case unit != m.unit:
			o.fail("metric %q reported in %q, declared in %q", m.name, m.unit, unit)
		case seen[m.name]:
			o.fail("metric %q reported twice", m.name)
		}
		seen[m.name] = true
	}
	for _, d := range declared {
		if !seen[d.Name] {
			o.fail("declared metric %q not reported", d.Name)
		}
	}
}

func printTable(workload string, o *outcome) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d attempted, %d failed\n", workload, o.attempted, o.failed)
	for _, m := range o.metrics {
		fmt.Fprintf(&b, "  %-36s %16.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprint(os.Stderr, b.String())
}

// keepMeasuring reports whether another pass fits in the measuring window:
// at least one pass always runs, and a pass starts only when a pass of the
// median length so far would still end inside the window.
func keepMeasuring(start time.Time, passes []float64, seconds float64) bool {
	if len(passes) == 0 {
		return true
	}
	return time.Since(start).Seconds()+median(passes) <= seconds
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest sample with at least ten samples above it and the
// percentile it sits at. Below 21 samples that sample is not above the
// median, so the median is returned at the 50th percentile.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 21 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveSampler tracks the largest heap the garbage collector found live at
// the end of any cycle while it runs. Peak RSS moves by up to a factor of
// two with where the collector happens to start relative to the peak of
// live data; the live heap at the end of each cycle does not.
type liveSampler struct {
	stop, done chan struct{}
	max        uint64
}

func startLiveSampler() *liveSampler {
	s := &liveSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if sample[0].Value.Kind() == metrics.KindUint64 {
				s.max = max(s.max, sample[0].Value.Uint64())
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the largest live heap in MB.
func (s *liveSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.max) / (1 << 20)
}

// allocMark is a point on the process-wide allocation counters.
type allocMark struct{ mallocs, bytes uint64 }

func markAllocs() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{ms.Mallocs, ms.TotalAlloc}
}

// since returns the allocation count and MB allocated since m.
func (m allocMark) since() (allocs, mb float64) {
	now := markAllocs()
	return float64(now.mallocs - m.mallocs), float64(now.bytes-m.bytes) / (1 << 20)
}

// Set-up is repeated until it has run at least setupMinRepeats times and
// for at least setupMinSeconds in all, half of that before the measuring
// window and the rest after it, and setup_s is the median repeat. The
// machine's speed drifts over tens of seconds, so the repeats sample both
// ends of a run rather than one moment of it.
const (
	setupMinRepeats = 3
	setupMinSeconds = 4.0
)

// repeatSetup runs setup, each time after a full garbage collection so all
// repeats start from the same heap, until ds holds at least minRepeats
// durations (seconds) summing to at least minSeconds. It returns the last
// result.
func repeatSetup[T any](ds *[]float64, minRepeats int, minSeconds float64, setup func() T) T {
	var last T
	for len(*ds) < minRepeats || sum(*ds) < minSeconds {
		runtime.GC()
		t0 := time.Now()
		last = setup()
		*ds = append(*ds, time.Since(t0).Seconds())
	}
	return last
}

// setupBefore runs the set-up repeats that precede the measuring window.
func setupBefore[T any](ds *[]float64, setup func() T) T {
	return repeatSetup(ds, 1, setupMinSeconds/2, setup)
}

// setupAfter runs the remaining set-up repeats and returns setup_s.
func setupAfter[T any](ds *[]float64, setup func() T) float64 {
	repeatSetup(ds, setupMinRepeats, setupMinSeconds, setup)
	fmt.Fprintf(os.Stderr, "set-up seconds: %.3f\n", *ds)
	return median(*ds)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// e2e adds the end-to-end metrics every workload reports: set-up time, the
// median pass time and throughput, and the peak live heap of the passes.
func (o *outcome) e2e(setup float64, passes []float64, workPerPass, peakLiveMB float64) {
	pass := median(passes)
	o.add("setup_s", setup, "s")
	o.add("pass_s", pass, "s")
	o.add("throughput_per_s", workPerPass/pass, "1/s")
	o.add("peak_live_mb", peakLiveMB, "MB")
	fmt.Fprintf(os.Stderr, "pass seconds: %.3f\n", passes)
}

// opLatencies stores the reported-not-gated view of the per-operation
// latencies in ls: median, tail, tail percentile and sample count.
func opLatencies(ls layerSet, prefix string, ops []float64) {
	t, pct := tail(ops)
	ls[prefix+"p50_ms"] = median(ops)
	ls[prefix+"tail_ms"] = t
	ls[prefix+"tail_pct"] = pct
	ls[prefix+"samples"] = float64(len(ops))
}

// phases holds a traced run's pass times and operation latencies (ms),
// untraced and traced.
type phases struct {
	untracedPasses, untracedOps, tracedPasses, tracedOps []float64
}

// finishTrace completes a traced run's per-layer values with the live bytes
// per trace event of mods, the untraced latency view and peak RSS, and the
// tracing overhead (traced minus untraced), then reports them all.
func (o *outcome) finishTrace(rec *recorder, vals layerSet, mods []*ir.Module, ph phases, workPerPass float64) {
	if bpe, err := traceBytesPerEvent(mods); err != nil {
		o.fail("trace bytes per event: %v", err)
	} else {
		vals["trace.bytes_per_event"] = bpe
	}
	up, tp := median(ph.untracedPasses), median(ph.tracedPasses)
	ut, _ := tail(ph.untracedOps)
	tt, _ := tail(ph.tracedOps)
	vals["overhead.pass_s"] = tp - up
	vals["overhead.throughput_per_s"] = workPerPass/tp - workPerPass/up
	vals["overhead.op_p50_ms"] = median(ph.tracedOps) - median(ph.untracedOps)
	vals["overhead.op_tail_ms"] = tt - ut
	opLatencies(vals, "workload.op_", ph.untracedOps)
	vals["workload.peak_rss_mb"] = peakRSSMB()
	o.layers = vals
	o.spans = rec
}
