package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/fi"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

const (
	// campaignEpsilon is the target Wilson 95% half-width of both the
	// crash and the SDC rate. At 0.01 one pass over the five kernels takes
	// ~22 s on a 2-core machine, which leaves no room for a median inside
	// one run; 0.02 needs a quarter of the injections (~5 s a pass).
	campaignEpsilon = 0.02
	// campaignWorkers is the injection worker pool size.
	campaignWorkers = 2
	// campaignPlanRuns is the planned run count; adaptive stopping ends
	// every campaign long before it.
	campaignPlanRuns = 1 << 16
	// oracleSamples is how many records per kernel are re-executed from
	// scratch on the reference walker.
	oracleSamples = 16
)

// ciKernel is one campaign-ci input: a module, its recorded golden run
// and its plan.
type ciKernel struct {
	name   string
	m      *ir.Module
	golden *interp.Result
	plan   *campaign.Plan
}

// runCampaignCI is the "campaign → target CI half-width" path: an
// in-memory adaptive campaign per §V SDC-prone kernel at scale 1, with
// snapshots and the default engine, stopping once both half-widths are
// within campaignEpsilon. Analysis runs only in set-up.
func runCampaignCI(op opts) *outcome {
	o := &outcome{}
	var rec *recorder
	var setupSets []layerSet
	if op.trace {
		rec = newRecorder()
	}
	setup := func() []ciKernel {
		rng := rand.New(rand.NewSource(op.seed))
		ls := layerSet{}
		var sid int
		var endSetup func()
		if rec != nil {
			sid, endSetup = rec.open(0, "setup")
			defer endSetup()
		}
		var ks []ciKernel
		for _, b := range bench.SDCProne5() {
			src := b.SourceAt(1)
			var golden *interp.Result
			var err error
			if rec != nil {
				kid, endKernel := rec.open(sid, "kernel")
				_, golden, err = analyzeTraced(rec, kid, ls, b.Name, src)
				endKernel()
			} else {
				_, golden, err = compileAndAnalyze(b.Name, src)
			}
			if err != nil {
				o.fail("%s: set-up analysis: %v", b.Name, err)
				continue
			}
			m := fi.ModuleOf(golden)
			plan, err := campaign.NewPlan(m, golden, campaign.PlanConfig{
				Benchmark: b.Name,
				Runs:      campaignPlanRuns,
				FI:        fi.Config{Seed: rng.Int63()},
			})
			if err != nil {
				o.fail("%s: plan: %v", b.Name, err)
				continue
			}
			ks = append(ks, ciKernel{b.Name, m, golden, plan})
		}
		setupSets = append(setupSets, ls)
		return ks
	}
	var setupDs []float64
	kernels := setupBefore(&setupDs, setup)

	// first holds each kernel's records from the first pass; every later
	// pass (and the traced replay) must reproduce them exactly.
	first := map[string][]fi.Record{}
	check := func(k ciKernel, recs []fi.Record, stopped bool) {
		o.attempted++
		cw, sw := halfWidths(recs)
		switch {
		case !stopped:
			o.fail("%s: campaign did not stop adaptively", k.name)
		case cw > campaignEpsilon || sw > campaignEpsilon:
			o.fail("%s: half-widths crash %.4f sdc %.4f exceed %.3f", k.name, cw, sw, campaignEpsilon)
		}
		prev, seen := first[k.name]
		if !seen {
			first[k.name] = recs
			return
		}
		if !sameRecords(prev, recs) {
			o.fail("%s: records differ from the first pass (%d vs %d injections)", k.name, len(recs), len(prev))
		}
	}
	// verify re-executes a sample of the first pass's records on the
	// reference walker, after the measuring window so it does not take
	// passes from it.
	verify := func() {
		for _, k := range kernels {
			if bad := oracleCheck(k, first[k.name], rand.New(rand.NewSource(op.seed^0x5eed))); bad != "" {
				o.fail("%s: %s", k.name, bad)
			}
		}
	}
	injections := func() float64 {
		n := 0
		for _, recs := range first {
			n += len(recs)
		}
		return float64(n)
	}

	untraced := func(window float64) (passes, ops []float64) {
		start := time.Now()
		for keepMeasuring(start, passes, window) {
			var pass float64
			for _, k := range kernels {
				t0 := time.Now()
				res, err := campaign.Run(context.Background(), k.m, k.golden, k.plan,
					campaign.RunOptions{Workers: campaignWorkers, Epsilon: campaignEpsilon})
				d := time.Since(t0).Seconds()
				pass += d
				ops = append(ops, d*1e3)
				if err != nil {
					o.attempted++
					o.fail("%s: %v", k.name, err)
					continue
				}
				check(k, res.Records, res.Stopped)
			}
			passes = append(passes, pass)
		}
		return passes, ops
	}
	if !op.trace {
		live := startLiveSampler()
		passes, ops := untraced(op.seconds)
		peak := live.peakMB()
		o.e2e(setupAfter(&setupDs, setup), passes, injections(), peak)
		verify()
		t, pct := tail(ops)
		fmt.Fprintf(os.Stderr, "campaign_s %.4f s, injections_to_ci %.0f, injections_per_s %.1f, campaign_peak_mb %.1f MB (peak RSS), epsilon %.3f;"+
			" per kernel p50 %.2f ms, tail %.2f ms at p%.1f of %d\n",
			median(passes), injections(), injections()/median(passes), peakRSSMB(), campaignEpsilon, median(ops), t, pct, len(ops))
		return o
	}

	// Traced run: the first half of the window runs untraced (overhead
	// baseline; it also fixes each kernel's stop point). The replay then
	// drives fi.Runner directly over the same run indices, shard by shard in
	// event order on the same worker count, as the engine does.
	start := time.Now()
	uPasses, uOps := untraced(op.seconds / 2)
	root, endRoot := rec.open(0, "campaign-ci")
	var tPasses, tOps []float64
	var sets []layerSet
	for len(tPasses) == 0 || keepMeasuring(start, append(slices.Clone(uPasses), tPasses...), op.seconds) {
		ls := layerSet{}
		pass, endPass := rec.open(root, "pass")
		var passS, replayed, busy, converged, skipped float64
		for _, k := range kernels {
			t0 := time.Now()
			kid, endKernel := rec.open(pass, "kernel")
			recs, view, runBusy, err := replayCampaign(rec, kid, ls, k, len(first[k.name]))
			endKernel()
			d := time.Since(t0).Seconds()
			passS += d
			tOps = append(tOps, d*1e3)
			if err != nil {
				o.attempted++
				o.fail("%s: %v", k.name, err)
				continue
			}
			check(k, recs, true)
			busy += runBusy
			if view != nil {
				replayed += float64(view.ReplayedEvents)
				ls["snapshot.captures"] += float64(view.Captures)
				ls["snapshot.restores"] += float64(view.Restores)
				ls["snapshot.dirty_pages"] += float64(view.DirtyPages)
				converged += float64(view.Converged)
				skipped += float64(view.SkippedEvents)
			}
			cw, sw := halfWidths(recs)
			ls["stats.halfwidth_crash"] = math.Max(ls["stats.halfwidth_crash"], cw)
			ls["stats.halfwidth_sdc"] = math.Max(ls["stats.halfwidth_sdc"], sw)
			ls["campaign.injections_to_ci"] += float64(len(recs))
		}
		endPass()
		if busy > 0 {
			ls["fi.delta_events_per_s"] = replayed / busy
		}
		if r := ls["snapshot.restores"]; r > 0 {
			ls["snapshot.converge_ratio"] = converged / r
		}
		if t := skipped + replayed; t > 0 {
			ls["snapshot.skip_ratio"] = skipped / t
		}
		if len(sets) > 0 {
			for _, name := range []string{"snapshot.captures", "snapshot.restores"} {
				if ls[name] != sets[0][name] {
					o.fail("%s changed between traced passes: %.0f then %.0f", name, sets[0][name], ls[name])
				}
			}
		}
		tPasses = append(tPasses, passS)
		sets = append(sets, ls)
	}
	endRoot()
	verify()
	var mods []*ir.Module
	for _, k := range kernels {
		mods = append(mods, k.m)
	}
	o.finishTrace(rec, medianSet(setupSets).merge(medianSet(sets)), mods,
		phases{uPasses, uOps, tPasses, tOps}, injections())
	return o
}

// replayCampaign runs injections [0, n) of k's plan on a fresh fi.Runner
// with snapshots, recording a span per layer call. It returns the records
// in index order, the snapshot statistics and the summed busy seconds of
// the RunIndex calls.
func replayCampaign(rec *recorder, parent int, ls layerSet, k ciKernel, n int) ([]fi.Record, *snapshot.View, float64, error) {
	var r *fi.Runner
	var err error
	ls.record(rec, parent, "fi.runner_setup", func() {
		if r, err = fi.NewRunner(k.m, k.golden, k.plan.FIConfig()); err == nil {
			_, err = r.EnableSnapshots(snapshot.Config{})
		}
	})
	if err != nil {
		return nil, nil, 0, err
	}
	ls.record(rec, parent, "fi.draw", func() {
		for i := int64(0); i < int64(n); i++ {
			r.Draw(i)
		}
	})
	recs := make([]fi.Record, n)
	var busyNS atomic.Int64
	_, allocs, mb := rec.layer(parent, "fi.run", func() {
		for si := 0; si < k.plan.NumShards(); si++ {
			lo, hi := k.plan.ShardRange(si)
			if lo >= int64(n) {
				break
			}
			if hi > int64(n) {
				hi = int64(n)
			}
			idxs := make([]int64, 0, hi-lo)
			for i := lo; i < hi; i++ {
				idxs = append(idxs, i)
			}
			idxs = r.OrderByEvent(idxs)
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < campaignWorkers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						j := next.Add(1) - 1
						if j >= int64(len(idxs)) {
							return
						}
						t0 := time.Now()
						recs[idxs[j]] = r.RunIndex(idxs[j])
						busyNS.Add(time.Since(t0).Nanoseconds())
					}
				}()
			}
			wg.Wait()
		}
	})
	// fi.run_s is the busy time of the RunIndex calls summed over workers.
	busy := float64(busyNS.Load()) / 1e9
	ls.timed("fi.run", busy, allocs, mb)
	return recs, r.SnapshotView(), busy, nil
}

// halfWidths returns the Wilson 95% half-widths of the crash and SDC rates.
func halfWidths(recs []fi.Record) (crash, sdc float64) {
	c, s := 0, 0
	for _, r := range recs {
		switch r.Outcome {
		case fi.OutcomeCrash:
			c++
		case fi.OutcomeSDC:
			s++
		}
	}
	n := len(recs)
	return stats.Proportion{Successes: c, N: n}.HalfWidth(), stats.Proportion{Successes: s, N: n}.HalfWidth()
}

func sameRecords(a, b []fi.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oracleCheck re-executes a seeded sample of the records from scratch with
// fi.RunOne, which runs the reference walker, and reports the first
// outcome or exception mismatch ("" when all agree).
func oracleCheck(k ciKernel, recs []fi.Record, rng *rand.Rand) string {
	if len(recs) == 0 {
		return "campaign produced no records"
	}
	cfg := k.plan.FIConfig()
	for i := 0; i < oracleSamples; i++ {
		idx := rng.Intn(len(recs))
		got := fi.RunOne(k.m, k.golden, recs[idx].Target, cfg, rng)
		if got.Outcome != recs[idx].Outcome || got.Exc != recs[idx].Exc {
			return fmt.Sprintf("oracle mismatch at run %d: campaign %v/%v, walker %v/%v",
				idx, recs[idx].Outcome, recs[idx].Exc, got.Outcome, got.Exc)
		}
	}
	return ""
}
