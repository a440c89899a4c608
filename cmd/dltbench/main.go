// Command dltbench regenerates every table of the paper reproduction:
// one experiment per figure or quantitative claim of "Distributed Ledger
// Technology: Blockchain Compared to Directed Acyclic Graph" (ICDCS
// 2018). Experiments are scheduled on the core worker-pool runner, so a
// multi-core host regenerates the whole paper concurrently; -workers 1
// reproduces the serial sweep with identical tables.
//
// Usage:
//
//	dltbench                     # run all experiments, one worker per core
//	dltbench -workers 1          # serial sweep (same tables, slower)
//	dltbench -experiment E9      # one experiment
//	dltbench -paradigm tangle    # only the tangle's rows in E9/E19/E20
//	dltbench -paradigm bitcoin,nano              # a two-paradigm comparison
//	dltbench -scale 0.25 -seed 7 # smaller/faster, different randomness
//	dltbench -format json        # machine-readable tables (also: csv)
//	dltbench -nano-batch 32      # add batched Nano sweep rows to E9/E12
//	dltbench -experiment E14 -fault-partition-frac 0.25   # milder split
//	dltbench -experiment E15 -double-spend-trials 10      # tighter rates
//	dltbench -experiment E16 -eclipse-frac 0.4            # extra sweep point
//	dltbench -experiment E17 -selfish-alpha 0.3           # extra sweep point
//	dltbench -experiment E17 -selfish-gamma 0.5           # Eyal–Sirer connectivity
//	dltbench -experiment E18 -double-spend-trials 10      # executed attacks
//	dltbench -experiment E18 -depth-sweep                 # z = 1…6 merchant rules
//	dltbench -experiment E19 -mega-nodes 1000000          # million-node frontier point
//	dltbench -experiment E20 -sync-pull-batch 8           # narrow cold-sync windows
//	dltbench -experiment E20 -backlog-cap 256             # bounded backlog buffers
//	dltbench -experiment E20 -backlog-ttl 30s             # age-based backlog eviction
//	dltbench -list               # show the registry
//	dltbench -timing             # append the wall-clock/speedup table
//	dltbench -bench-report -bench-out BENCH_038.json      # commit a perf baseline
//	dltbench -bench-compare BENCH_038.json                # live regression gate
//	dltbench -bench-compare old.json -bench-candidate new.json  # diff two files
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/perf"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		experiment = flag.String("experiment", "all", "experiment id (E1…E21) or 'all'")
		paradigm   = flag.String("paradigm", "all",
			"ledger paradigms the cross-paradigm experiments (E9/E19/E20) build rows for: a comma-separated subset of "+
				strings.Join(netsim.ParadigmNames(), ", ")+", or 'all'")
		seed      = flag.Int64("seed", 42, "random seed; equal seeds reproduce results exactly")
		scale     = flag.Float64("scale", 1.0, "duration/workload scale factor")
		workers   = flag.Int("workers", 0, "parallel experiment workers (0 = one per CPU core)")
		format    = flag.String("format", "text", "table output format: text, csv or json")
		nanoBatch = flag.Int("nano-batch", 0,
			"add batched Nano sweep rows to E9/E12 with this gossip ingest batch size (<= 1 = serial tables only)")
		nanoWindow = flag.Duration("nano-batch-window", 0,
			"accumulation window for Nano gossip batches (0 = 5ms default)")
		partitionFrac = flag.Float64("fault-partition-frac", 0,
			"minority share of nodes split away in E14's partition scenarios (0 = default 0.5)")
		churnNodes = flag.Int("fault-churn-nodes", 0,
			"nodes that leave and rejoin in E14's churn scenarios (0 = default 2)")
		dsTrials = flag.Int("double-spend-trials", 0,
			"contested double-spend trials per E15 attacker-weight sweep point (0 = default 3)")
		eclipseFrac = flag.Float64("eclipse-frac", 0,
			"extra captured-peer fraction added to E16's eclipse sweep (0 = default sweep only)")
		selfishAlpha = flag.Float64("selfish-alpha", 0,
			"extra adversary hash share added to E17's selfish-mining sweep (0 = default sweep only)")
		selfishGamma = flag.Float64("selfish-gamma", 0,
			"Eyal–Sirer connectivity for E17's selfish-mining rows: fraction of honest hash power mining on the adversary's block in an open 1-1 race (0 = historical first-seen races)")
		withholdWeight = flag.Float64("withhold-weight", 0,
			"extra withheld-weight fraction added to E17's vote-withholding sweep (0 = default sweep only)")
		depthSweep = flag.Bool("depth-sweep", false,
			"add E18's confirmation-depth sweep: the executed chain double spend rerun for merchant rules z = 1…6 against two attack-window lengths, with the analytic catch-up odds beside each")
		megaNodes = flag.Int("mega-nodes", 0,
			"append an unscaled frontier point of this many nodes to E19's sweep when it extends it (0 = default 10^2…10^5 sweep)")
		syncPullBatch = flag.Int("sync-pull-batch", 0,
			"E20 cold-start range-pull window: history blocks per sync request (0 = default 32)")
		backlogCap = flag.Int("backlog-cap", 0,
			"bound on E20's per-node backlog buffers — chain orphan pool, lattice gap buffer and ingest queue, tangle parked vertices (0 = package defaults)")
		backlogTTL = flag.Duration("backlog-ttl", 0,
			"age bound on E20's parked backlog objects in simulation time, e.g. 30s — stale orphans/gaps/parked vertices evict on the next arrival even under -backlog-cap (0 = disabled)")
		timing  = flag.Bool("timing", false, "print the sweep wall-clock/speedup table (text format only)")
		list    = flag.Bool("list", false, "list experiments and exit")
		summary = flag.Bool("summary", false, "print the §VII five-dimension comparison and exit")

		benchReport = flag.Bool("bench-report", false,
			"run the perf trajectory suite and write the canonical BENCH JSON (see PERFORMANCE.md)")
		benchOut   = flag.String("bench-out", "", "path for the -bench-report output ('' = stdout)")
		benchLabel = flag.String("bench-label", "038", "baseline label embedded in the -bench-report output")
		benchScale = flag.Float64("bench-scale", 1, "perf suite workload scale; reports only compare at equal scale")
		benchTime  = flag.Duration("bench-time", time.Second,
			"minimum measured duration per perf benchmark (CI turns this down, not -bench-scale)")
		benchCompare = flag.String("bench-compare", "",
			"baseline BENCH file to gate against; with -bench-candidate diffs two files, else runs the suite live")
		benchCandidate = flag.String("bench-candidate", "", "candidate BENCH file for -bench-compare")
		benchThreshold = flag.Float64("bench-threshold", perf.DefaultThreshold,
			"regression gate threshold: fail when ns/op or allocs/op grow by more than this fraction")
	)
	flag.Parse()
	if *benchReport {
		return runBenchReport(benchFlags{
			out: *benchOut, label: *benchLabel, scale: *benchScale, benchTime: *benchTime,
		})
	}
	if *benchCompare != "" {
		return runBenchCompare(benchFlags{
			compare: *benchCompare, candidate: *benchCandidate,
			benchTime: *benchTime, threshold: *benchThreshold,
		})
	}
	if *format != "text" && *format != "csv" && *format != "json" {
		fmt.Fprintf(os.Stderr, "unknown -format %q (want text, csv or json)\n", *format)
		return 1
	}
	// Out-of-range adversary and fault knobs are rejected here with a
	// clear message. The core Config would silently fall back to the
	// default sweeps — correct for programmatic use, but a typed
	// -eclipse-frac 1.5 or -selfish-alpha -0.3 on the command line is a
	// mistake the user should hear about, not a run that quietly ignores
	// the flag.
	if err := validateKnobs(knobRanges{
		eclipseFrac: *eclipseFrac, selfishAlpha: *selfishAlpha, selfishGamma: *selfishGamma,
		withholdWeight: *withholdWeight, partitionFrac: *partitionFrac,
		churnNodes: *churnNodes, dsTrials: *dsTrials,
		syncPullBatch: *syncPullBatch, backlogCap: *backlogCap, backlogTTL: *backlogTTL,
		megaNodes: *megaNodes, paradigms: parseParadigms(*paradigm),
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-4s §%-7s %s\n", e.ID, e.Section, e.Title)
		}
		return 0
	}
	if *summary {
		if err := core.Summary().Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	// -workers bounds both levels of parallelism: the sweep pool and the
	// fan-out of sweep points inside E9/E10/E12. -workers 1 is the fully
	// serial schedule; the tables are identical either way.
	cfg := core.Config{
		Seed: *seed, Scale: *scale, Workers: *workers,
		Paradigms: parseParadigms(*paradigm),
		NanoBatch: *nanoBatch, NanoBatchWindow: *nanoWindow,
		FaultPartitionFrac: *partitionFrac, FaultChurnNodes: *churnNodes,
		DoubleSpendTrials: *dsTrials,
		EclipseFrac:       *eclipseFrac,
		SelfishAlpha:      *selfishAlpha,
		SelfishGamma:      *selfishGamma,
		WithholdWeight:    *withholdWeight,
		DepthSweep:        *depthSweep,
		MegaNodes:         *megaNodes,
		SyncPullBatch:     *syncPullBatch,
		BacklogCap:        *backlogCap,
		BacklogTTL:        *backlogTTL,
	}
	selected := core.Experiments()
	if *experiment != "all" {
		e, err := core.ByID(*experiment)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		selected = []core.Experiment{e}
	}

	// Ctrl-C cancels the sweep context, which stops scheduling new
	// experiments AND interrupts in-flight ones at their next sweep
	// point; the report marks unfinished work with the context error.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	report, runErr := core.RunSelected(ctx, cfg, *workers, selected)
	if err := renderReport(os.Stdout, report, *format, *timing); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if runErr != nil {
		return 1
	}
	return 0
}

// knobRanges carries the adversary/fault flag values into validation.
type knobRanges struct {
	eclipseFrac, selfishAlpha, selfishGamma, withholdWeight, partitionFrac float64
	churnNodes, dsTrials, syncPullBatch, backlogCap, megaNodes             int
	backlogTTL                                                             time.Duration
	paradigms                                                              []string
}

// parseParadigms splits the -paradigm value into paradigm registry
// names. The default 'all' — and an empty value — selects every
// registered paradigm (core.Config treats an empty filter the same
// way), so the historical full-comparison tables need no flag at all.
func parseParadigms(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 1 && out[0] == "all" {
		return nil
	}
	return out
}

// validateKnobs rejects out-of-range adversary and fault knobs with the
// flag name and its legal range.
func validateKnobs(k knobRanges) error {
	if k.eclipseFrac < 0 || k.eclipseFrac > 1 {
		return fmt.Errorf("-eclipse-frac %v out of range: want a captured-peer fraction in [0, 1]", k.eclipseFrac)
	}
	if k.selfishAlpha < 0 || k.selfishAlpha >= 1 {
		return fmt.Errorf("-selfish-alpha %v out of range: want an adversary hash share in [0, 1)", k.selfishAlpha)
	}
	if k.selfishGamma < 0 || k.selfishGamma > 1 {
		return fmt.Errorf("-selfish-gamma %v out of range: want an honest-connectivity fraction in [0, 1]", k.selfishGamma)
	}
	if k.withholdWeight < 0 || k.withholdWeight > 1 {
		return fmt.Errorf("-withhold-weight %v out of range: want a withheld voting-weight fraction in [0, 1]", k.withholdWeight)
	}
	if k.partitionFrac < 0 || k.partitionFrac >= 1 {
		return fmt.Errorf("-fault-partition-frac %v out of range: want a minority share in [0, 1)", k.partitionFrac)
	}
	if k.churnNodes < 0 {
		return fmt.Errorf("-fault-churn-nodes %d out of range: want a non-negative node count", k.churnNodes)
	}
	if k.dsTrials < 0 {
		return fmt.Errorf("-double-spend-trials %d out of range: want a non-negative trial count", k.dsTrials)
	}
	if k.syncPullBatch < 0 || k.syncPullBatch > 65536 {
		return fmt.Errorf("-sync-pull-batch %d out of range: want a window of [0, 65536] blocks", k.syncPullBatch)
	}
	if k.backlogCap < 0 || k.backlogCap > 1<<20 {
		return fmt.Errorf("-backlog-cap %d out of range: want a buffer bound in [0, %d]", k.backlogCap, 1<<20)
	}
	if k.backlogTTL < 0 || k.backlogTTL > 24*time.Hour {
		return fmt.Errorf("-backlog-ttl %v out of range: want an age bound in [0, 24h]", k.backlogTTL)
	}
	if k.megaNodes < 0 || k.megaNodes > 10_000_000 {
		return fmt.Errorf("-mega-nodes %d out of range: want a node count in [0, 10000000]", k.megaNodes)
	}
	for _, p := range k.paradigms {
		if p == "all" {
			continue
		}
		if _, err := netsim.ParadigmByName(p); err != nil {
			return fmt.Errorf("-paradigm %q unknown: want a comma-separated subset of %s, or 'all'",
				p, strings.Join(netsim.ParadigmNames(), ", "))
		}
	}
	return nil
}

// experimentDoc is one experiment's machine-readable result: identity,
// outcome, and the full table document (headers, rows, notes).
type experimentDoc struct {
	ID      string            `json:"id"`
	Section string            `json:"section"`
	Title   string            `json:"title"`
	Error   string            `json:"error,omitempty"`
	Table   *metrics.TableDoc `json:"table,omitempty"`
}

// renderReport writes the sweep's tables in the selected format. Text is
// the human-readable default; csv and json carry every cell of every
// table, so bench trajectories are diffable and machine-readable.
func renderReport(w io.Writer, report *core.Report, format string, timing bool) error {
	switch format {
	case "json":
		docs := make([]experimentDoc, 0, len(report.Runs))
		for _, r := range report.Runs {
			doc := experimentDoc{ID: r.Experiment.ID, Section: r.Experiment.Section, Title: r.Experiment.Title}
			if r.Err != nil {
				doc.Error = r.Err.Error()
			} else {
				td := r.Table.Doc()
				doc.Table = &td
			}
			docs = append(docs, doc)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(docs)
	case "csv":
		for _, r := range report.Runs {
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.Experiment.ID, r.Err)
				continue
			}
			if _, err := fmt.Fprintf(w, "# %s [§%s] %s\n", r.Experiment.ID, r.Experiment.Section, r.Experiment.Title); err != nil {
				return err
			}
			if err := r.Table.RenderCSV(w); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		return nil
	default:
		for _, r := range report.Runs {
			if _, err := fmt.Fprintf(w, "=== %s [§%s] %s\n", r.Experiment.ID, r.Experiment.Section, r.Experiment.Title); err != nil {
				return err
			}
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.Experiment.ID, r.Err)
				continue
			}
			if err := r.Table.Render(w); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if timing {
			return report.Table().Render(w)
		}
		return nil
	}
}
