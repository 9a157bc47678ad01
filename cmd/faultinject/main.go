// Command faultinject runs an LLFI-style fault-injection campaign against
// a built-in benchmark (or a MiniC source file) and prints the outcome
// distribution (Figure 5), the crash-type breakdown (Table II) and — when
// -accuracy is set — the recall and precision of the ePVF crash model
// against the observed crashes (Figures 6 and 7).
//
// Usage:
//
//	faultinject -bench pathfinder -runs 3000 [-seed 1] [-jitter 64] [-accuracy]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/epvf"
	"repro/internal/fi"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "faultinject:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("faultinject", flag.ContinueOnError)
	benchName := fs.String("bench", "", "built-in benchmark name")
	srcPath := fs.String("src", "", "path to a MiniC source file (or .ll textual IR) instead")
	scale := fs.Int("scale", 1, "benchmark input scale")
	runs := fs.Int("runs", 3000, "number of injections")
	seed := fs.Int64("seed", 2016, "sampling seed")
	jitterPages := fs.Uint64("jitter", 64, "ASLR jitter window in pages (0 = deterministic layout)")
	accuracy := fs.Bool("accuracy", false, "also measure crash-model recall and precision")
	targeted := fs.Int("targeted", 400, "targeted injections for the precision study")
	snap := fs.Bool("snapshot", true, "restore COW execution snapshots instead of replaying each run from scratch (auto-off under -jitter)")
	snapStride := fs.Int64("snapshot-stride", 0, "events between snapshots (0 = auto, ~sqrt(trace length))")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := loadModule(*benchName, *srcPath, *scale)
	if err != nil {
		return err
	}

	analysis, golden, err := epvf.AnalyzeModule(m, epvf.Config{})
	if err != nil {
		return err
	}
	cfg := fi.Config{
		Runs: *runs, Seed: *seed, JitterWindow: *jitterPages * mem.PageSize,
		DisableSnapshots: !*snap, SnapshotStride: *snapStride,
	}
	camp, err := fi.RunCampaign(m, golden, cfg)
	if err != nil {
		return err
	}

	n := len(camp.Records)
	t := report.NewTable(fmt.Sprintf("Fault injection: %s (%d runs)", m.Name, n),
		"Outcome", "Count", "Rate", "95% CI half-width")
	for _, o := range fi.FailureOutcomes {
		p := stats.Proportion{Successes: camp.Counts[o], N: n}
		t.AddRow(o.String(), camp.Counts[o], report.Percent(p.Rate()), report.Percent(p.HalfWidth()))
	}
	fmt.Print(t.String())

	ct := report.NewTable("\nCrash types (Table II row)", "Type", "Share of crashes")
	for _, k := range fi.CrashKinds {
		ct.AddRow(k.String(), report.Percent(camp.ExcTypeShare(k)))
	}
	fmt.Print(ct.String())

	fmt.Printf("\nModel crash-rate estimate: %s (FI measured: %s)\n",
		report.Percent(analysis.CrashRate()), report.Percent(camp.Rate(fi.OutcomeCrash)))

	if *accuracy {
		recall, rn := fi.MeasureRecall(camp.Records, analysis.CrashResult)
		prec, pn := fi.MeasurePrecision(m, golden, analysis.CrashResult, *targeted,
			fi.Config{Seed: *seed + 1, JitterWindow: cfg.JitterWindow})
		fmt.Printf("Crash-model recall:    %s (over %d crash runs)\n", report.Percent(recall), rn)
		fmt.Printf("Crash-model precision: %s (over %d targeted injections)\n", report.Percent(prec), pn)
	}
	return nil
}

func loadModule(benchName, srcPath string, scale int) (*ir.Module, error) {
	switch {
	case benchName != "" && srcPath != "":
		return nil, fmt.Errorf("-bench and -src are mutually exclusive")
	case benchName != "":
		b, ok := bench.Get(benchName)
		if !ok {
			var names []string
			for _, bb := range bench.All() {
				names = append(names, bb.Name)
			}
			return nil, fmt.Errorf("unknown benchmark %q; available: %s", benchName, strings.Join(names, ", "))
		}
		return b.Module(scale)
	case srcPath != "":
		src, err := os.ReadFile(srcPath)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(srcPath, ".ll") {
			return ir.Parse(string(src))
		}
		return lang.Compile(strings.TrimSuffix(srcPath, ".c"), string(src))
	default:
		return nil, fmt.Errorf("specify -bench <name> or -src <file>")
	}
}
