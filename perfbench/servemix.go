package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/epvf"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	// serveClients is the closed loop's client count: each client sends
	// its next request only after the previous reply arrived.
	serveClients = 2
	// serveWarmRepeats is how many warm requests each module gets per
	// pass. The mix is assumed, not taken from observed daemon traffic;
	// the request counts are chosen so that each of the three paths takes
	// about a third of a pass (see README.md), so slowing any one of them
	// twofold moves pass_s by more than its bound.
	serveWarmRepeats = 40
	// serveCacheBytes is the daemon's memory-tier budget: large enough
	// that a pass never evicts, so the stage of every request is
	// deterministic under any interleaving of the two clients.
	serveCacheBytes = 1 << 30
)

// serveKernels are the built-in kernels serve-mix draws its modules from,
// at scale 1: those whose cold analysis takes well under a second and whose
// event count does not depend on the input seed, so every seed asks for
// the same work. They are listed slowest first, the order each phase sends
// them in, which keeps the two clients' share of a phase balanced.
var serveKernels = []string{"lulesh", "pathfinder", "mm", "lud", "nw", "bfs"}

// requestKinds are the three request kinds of the mix, in the order a pass
// sends them, with the stage each is expected to be served from.
var (
	requestKinds  = []string{"cold", "edit", "warm"}
	expectedStage = map[string]string{"cold": serve.StageComputed, "edit": serve.StageIncremental, "warm": serve.StageSummary}
)

// cacheKinds are the cache entry kinds the daemon's analyze path uses.
var cacheKinds = []string{"summary", "trace", "inc-manifest-v1", "inc-section-v1"}

var seedStmt = regexp.MustCompile(`seed = \d+;`)

// serveEdits are the edits each cold module gets, every one a rewrite of a
// single statement of irand that keeps its values and its event count. The
// walks of main's section then read exactly what they read before, so an
// edit re-analyzes only irand's section and reuses all others.
var serveEdits = [][2]string{
	{"seed = seed * 1103515245 + 12345;", "seed = 12345 + seed * 1103515245;"},
	{"return (seed >> 16) & 32767;", "return 32767 & (seed >> 16);"},
}

// editedSection is the only section an edit may recompute.
const editedSection = "irand"

// serveModule is one distinct module of the mix with its oracle numerators.
type serveModule struct {
	name string
	m    *ir.Module
	body []byte // JSON-encoded serve.AnalyzeRequest
	text string // the IR the request carries
	want [5]int64
}

// serveReq is one request of a pass.
type serveReq struct {
	kind   string
	module int
}

// numerators are the reply fields that must equal a local analysis.
func numerators(s *serve.Summary) [5]int64 {
	return [5]int64{s.TotalBits, s.ACEBits, s.CrashBits, s.ACENodes, s.DynInstrs}
}

// serveSetup builds the module pool and the request sequence from the seed
// and computes every module's oracle numerators with a local
// epvf.AnalyzeModule. Modules 0..k-1 are the cold ones, the rest their
// edits.
func serveSetup(seed int64, rec *recorder, ls layerSet) ([]serveModule, []serveReq, error) {
	rng := rand.New(rand.NewSource(seed))
	k := len(serveKernels)
	mods := make([]serveModule, k*(1+len(serveEdits)))
	var sid int
	if rec != nil {
		var end func()
		sid, end = rec.open(0, "setup")
		defer end()
	}
	for i, name := range serveKernels {
		b, ok := bench.Get(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown kernel %s", name)
		}
		src := b.SourceAt(1)
		if len(seedStmt.FindAllString(src, -1)) != 1 {
			return nil, nil, fmt.Errorf("%s: source has no single seed statement to vary", name)
		}
		srcs := []string{seedStmt.ReplaceAllString(src, fmt.Sprintf("seed = %d;", 1+rng.Intn(1<<30)))}
		for _, e := range serveEdits {
			if strings.Count(src, e[0]) != 1 {
				return nil, nil, fmt.Errorf("%s: source has no single %q to edit", name, e[0])
			}
			srcs = append(srcs, strings.Replace(srcs[0], e[0], e[1], 1))
		}
		for j, s := range srcs {
			var a *epvf.Analysis
			var err error
			if rec != nil {
				kid, end := rec.open(sid, "kernel")
				a, _, err = analyzeTraced(rec, kid, ls, name, s)
				end()
			} else {
				a, _, err = compileAndAnalyze(name, s)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %v", name, err)
			}
			m := a.Trace.Module
			text := ir.Print(m)
			body, err := json.Marshal(serve.AnalyzeRequest{IR: text})
			if err != nil {
				return nil, nil, err
			}
			mods[i+j*k] = serveModule{name: name, m: m, body: body, text: text,
				want: [5]int64{a.TotalBits, a.ACEBits, a.CrashResult.CrashBitCount, a.ACENodes, a.Trace.NumEvents()}}
		}
	}
	// The sequence, in three phases: every cold module once, then every
	// edit once (its cold base is cached by then), then serveWarmRepeats
	// repeats of every module in seeded order. Each phase starts when the
	// previous one has finished, so every request's stage is fixed.
	var seq []serveReq
	for i := range mods {
		kind := "edit"
		if i < k {
			kind = "cold"
		}
		seq = append(seq, serveReq{kind, i})
	}
	var warm []serveReq
	for n := 0; n < serveWarmRepeats; n++ {
		for i := range mods {
			warm = append(warm, serveReq{"warm", i})
		}
	}
	rng.Shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
	return mods, append(seq, warm...), nil
}

// passResult is what one pass over the request sequence observed.
type passResult struct {
	wall      float64
	phases    map[string]float64   // wall seconds by request kind
	latencies map[string][]float64 // ms by request kind
	all       []float64            // ms, every request
	stages    map[string]int
	transport []float64 // ms, client latency minus the daemon's span
	reused    int
	recomp    int
	cache     cache.Stats // the daemon's store at the end of the pass
	failures  []string
	surprises []string // requests not served from their kind's usual stage
}

// servePass starts a fresh daemon (so cold modules are new to it), drives
// the sequence phase by phase through the closed loop of serveClients
// clients and shuts the daemon down. traced sets the daemon's Tracer and records a client
// span per request under parent.
func servePass(mods []serveModule, seq []serveReq, rec *recorder, parent int) passResult {
	pr := passResult{phases: map[string]float64{}, latencies: map[string][]float64{}, stages: map[string]int{}}
	cfg := serve.Config{Addr: "127.0.0.1:0", Incremental: true, CacheMemBytes: serveCacheBytes}
	if rec != nil {
		cfg.Tracer = obs.NewTracer(nil)
		cfg.Tracer.SetRetain(64)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		pr.failures = append(pr.failures, "start daemon: "+err.Error())
		return pr
	}
	srv.Start()
	url := "http://" + srv.Addr() + "/v1/analyze"

	var mu sync.Mutex
	clients := make([]*http.Client, serveClients)
	for c := range clients {
		clients[c] = &http.Client{Transport: &http.Transport{}}
		defer clients[c].CloseIdleConnections()
	}
	t0 := time.Now()
	for _, kind := range requestKinds {
		var phase []serveReq
		for _, r := range seq {
			if r.kind == kind {
				phase = append(phase, r)
			}
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		p0 := time.Now()
		for _, client := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1) - 1)
					if j >= len(phase) {
						return
					}
					r := phase[j]
					start := time.Now()
					stage, reply, err := postAnalyze(client, url, mods[r.module].body)
					end := time.Now()
					ms := float64(end.Sub(start).Nanoseconds()) / 1e6
					mu.Lock()
					pr.latencies[r.kind] = append(pr.latencies[r.kind], ms)
					pr.all = append(pr.all, ms)
					pr.stages[stage]++
					if stage != expectedStage[r.kind] && len(pr.surprises) < 5 {
						pr.surprises = append(pr.surprises, fmt.Sprintf("%s %s served from %q", r.kind, mods[r.module].name, stage))
					}
					switch {
					case err != nil:
						pr.failures = append(pr.failures, fmt.Sprintf("%s %s: %v", r.kind, mods[r.module].name, err))
					case numerators(reply.Summary) != mods[r.module].want:
						pr.failures = append(pr.failures, fmt.Sprintf("%s %s: reply numerators %v, local analysis %v",
							r.kind, mods[r.module].name, numerators(reply.Summary), mods[r.module].want))
					}
					if err == nil && reply.Sections != nil {
						pr.reused += reply.Sections.Reused
						pr.recomp += reply.Sections.Recomputed
					}
					if err == nil && r.kind == "edit" && (reply.Sections == nil ||
						!slices.Equal(reply.Sections.RecomputedNames, []string{editedSection})) {
						pr.failures = append(pr.failures, fmt.Sprintf("edit %s: recomputed sections %v, want only [%s]",
							mods[r.module].name, recomputedNames(reply.Sections), editedSection))
					}
					mu.Unlock()
					if rec != nil && err == nil {
						id := rec.add(parent, "serve.request."+r.kind, start, end)
						for _, sp := range reply.Spans {
							rec.add(id, "serve.daemon", sp.Start, sp.Start.Add(time.Duration(sp.WallNS)))
							mu.Lock()
							pr.transport = append(pr.transport, ms-float64(sp.WallNS)/1e6)
							mu.Unlock()
						}
					}
				}
			}()
		}
		wg.Wait()
		pr.phases[kind] = time.Since(p0).Seconds()
	}
	pr.wall = time.Since(t0).Seconds()
	pr.cache = srv.Store().Stats()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		pr.failures = append(pr.failures, "shut down daemon: "+err.Error())
	}
	return pr
}

func recomputedNames(s *serve.SectionStats) []string {
	if s == nil {
		return nil
	}
	return s.RecomputedNames
}

// postAnalyze sends one analyze request and returns the X-Epvf-Stage
// header and the decoded reply.
func postAnalyze(c *http.Client, url string, body []byte) (string, *serve.AnalyzeReply, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	stage := resp.Header.Get(serve.StageHeader)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return stage, nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var reply serve.AnalyzeReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return stage, nil, err
	}
	if reply.Summary == nil {
		return stage, nil, fmt.Errorf("reply has no summary")
	}
	return stage, &reply, nil
}

// runServeMix is the daemon path: POST /v1/analyze over loopback to an
// in-process serve daemon (incremental tier on, memory cache), driven by a
// closed loop of two clients over a seeded mix of cold, warm and edit
// requests.
func runServeMix(op opts) *outcome {
	o := &outcome{}
	var rec *recorder
	var setupSets []layerSet
	if op.trace {
		rec = newRecorder()
	}
	type setupOut struct {
		mods []serveModule
		seq  []serveReq
	}
	setup := func() setupOut {
		ls := layerSet{}
		mods, seq, err := serveSetup(op.seed, rec, ls)
		if err != nil {
			o.fail("set-up: %v", err)
		}
		setupSets = append(setupSets, ls)
		return setupOut{mods, seq}
	}
	var setupDs []float64
	in := setupBefore(&setupDs, setup)
	if len(in.seq) == 0 {
		return o
	}

	var firstStages map[string]int
	check := func(pr passResult) {
		o.attempted += len(in.seq)
		for _, f := range pr.failures {
			o.fail("%s", f)
		}
		for _, s := range pr.surprises {
			fmt.Fprintln(os.Stderr, "note:", s)
		}
		if firstStages == nil {
			firstStages = pr.stages
		} else if fmt.Sprint(firstStages) != fmt.Sprint(pr.stages) {
			o.fail("stage counts changed between passes: %v then %v", firstStages, pr.stages)
		}
	}
	// untraced runs passes for window seconds and returns the pass times,
	// every request latency, the latencies by kind and the phase times by
	// kind.
	untraced := func(window float64) (passes, ops []float64, kinds, phaseS map[string][]float64) {
		kinds, phaseS = map[string][]float64{}, map[string][]float64{}
		start := time.Now()
		for keepMeasuring(start, passes, window) {
			pr := servePass(in.mods, in.seq, nil, 0)
			check(pr)
			passes = append(passes, pr.wall)
			ops = append(ops, pr.all...)
			for k, l := range pr.latencies {
				kinds[k] = append(kinds[k], l...)
			}
			for k, d := range pr.phases {
				phaseS[k] = append(phaseS[k], d)
			}
		}
		for _, k := range requestKinds {
			fmt.Fprintf(os.Stderr, "%s phase: %d requests, median %.3f s, %.0f%% of the median pass\n",
				k, len(kinds[k])/len(passes), median(phaseS[k]), 100*median(phaseS[k])/median(passes))
		}
		return passes, ops, kinds, phaseS
	}
	requests := float64(len(in.seq))
	if !op.trace {
		live := startLiveSampler()
		passes, ops, kinds, _ := untraced(op.seconds)
		peak := live.peakMB()
		o.e2e(setupAfter(&setupDs, setup), passes, requests, peak)
		for _, k := range append(requestKinds, "all") {
			xs := kinds[k]
			if k == "all" {
				xs = ops
			}
			t, pct := tail(xs)
			fmt.Fprintf(os.Stderr, "serve_%s_p50_ms %.3f, serve_%s_tail_ms %.3f at p%.1f of %d\n", k, median(xs), k, t, pct, len(xs))
		}
		fmt.Fprintf(os.Stderr, "serve_rps %.3f, serve_peak_mb %.1f MB (peak RSS), stages per pass %v\n",
			requests/median(passes), peakRSSMB(), firstStages)
		return o
	}

	// Traced run: the first half of the window untraced (overhead baseline
	// and per-kind latencies), the second half with the daemon's tracer on,
	// a client span per request and an ir.Parse replay of the pass's
	// request bodies.
	start := time.Now()
	uPasses, uOps, kinds, phaseS := untraced(op.seconds / 2)
	root, endRoot := rec.open(0, "serve-mix")
	var tPasses, tOps []float64
	var sets []layerSet
	for len(tPasses) == 0 || keepMeasuring(start, append(slices.Clone(uPasses), tPasses...), op.seconds) {
		pass, endPass := rec.open(root, "pass")
		pr := servePass(in.mods, in.seq, rec, pass)
		check(pr)
		ls := layerSet{}
		ls.record(rec, pass, "ir.parse", func() {
			for _, r := range in.seq {
				if _, err := ir.Parse(in.mods[r.module].text); err != nil {
					o.fail("ir.Parse %s: %v", in.mods[r.module].name, err)
				}
			}
		})
		endPass()
		ls["serve.stage_computed"] = float64(pr.stages[serve.StageComputed])
		ls["serve.stage_summary"] = float64(pr.stages[serve.StageSummary])
		ls["serve.stage_incremental"] = float64(pr.stages[serve.StageIncremental])
		ls["serve.stage_trace"] = float64(pr.stages[serve.StageTrace])
		for _, kind := range cacheKinds {
			if ks := pr.cache.Kinds[kind]; ks.Hits+ks.Misses > 0 {
				ls["cache.hit_ratio."+kind] = float64(ks.Hits) / float64(ks.Hits+ks.Misses)
			}
		}
		ls["cache.mem_bytes"] = float64(pr.cache.MemBytes)
		ls["cache.evictions"] = float64(pr.cache.Evictions)
		ls["inc.sections_reused"] = float64(pr.reused)
		ls["inc.sections_recomputed"] = float64(pr.recomp)
		ls["serve.transport_ms"] = median(pr.transport)
		tPasses = append(tPasses, pr.wall)
		tOps = append(tOps, pr.all...)
		sets = append(sets, ls)
	}
	endRoot()
	vals := medianSet(setupSets).merge(medianSet(sets))
	for _, k := range requestKinds {
		opLatencies(vals, "serve."+k+"_", kinds[k])
		vals["serve."+k+"_phase_s"] = median(phaseS[k])
	}
	var mods []*ir.Module
	for _, m := range in.mods {
		mods = append(mods, m.m)
	}
	o.finishTrace(rec, vals, mods, phases{uPasses, uOps, tPasses, tOps}, requests)
	return o
}
