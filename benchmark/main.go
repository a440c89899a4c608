// Command benchmark is the repo's end-to-end and per-layer benchmark:
// four workloads over the four ledgers, driven through the public
// constructors of the internal packages. See README.md beside this file
// for the metric glossary and how the metrics are predicted to interact,
// and BENCHMARK.json at the repo root for the contract it is run under.
//
//	go run ./benchmark -workload all
//	go run ./benchmark -workload scale-gossip -trace 1
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	repeats  int
	seconds  float64
	trace    bool
	scale    float64
	jsonPath string
	update   bool
}

func main() {
	var o options
	var trace int
	var selfcheck bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the only source of input randomness")
	flag.IntVar(&o.repeats, "repeats", 3, "rounds to run at least")
	flag.Float64Var(&o.seconds, "seconds", 0, "keep running rounds until this many seconds have passed")
	flag.IntVar(&trace, "trace", 0, "1: traced run, report the per-layer metrics instead of the end-to-end ones")
	flag.Float64Var(&o.scale, "scale", 1, "size factor, tests only: results at scale != 1 are not comparable")
	flag.StringVar(&o.jsonPath, "json", "", "also write the full report to this file")
	flag.BoolVar(&o.update, "update", false, "rewrite expected/<workload>.json from this run (seed 1, scale 1)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the untraced set twice and compare the two against the bounds")
	flag.Parse()
	o.trace = trace != 0

	// One driving goroutine; the second P is the collector's.
	runtime.GOMAXPROCS(2)

	var err error
	switch {
	case selfcheck:
		err = selfCheck(o)
	case o.workload == "all":
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// report is the full result of one workload run: what -json writes and
// what -workload all and -selfcheck read back from their children.
type report struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Comparable bool    `json:"comparable"`
	Traced     bool    `json:"traced"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Rounds     int     `json:"rounds"`
	// RunWallS and Slowdown are, per untraced round, the uncalibrated
	// wall seconds of the run regions and the factor run_s divided
	// them by.
	RunWallS  []float64   `json:"run_wall_s"`
	Slowdown  []float64   `json:"host_slowdown"`
	Attempted int         `json:"ops_attempted"`
	Failed    int         `json:"ops_failed"`
	Correct   bool        `json:"correct"`
	Problems  []string    `json:"problems,omitempty"`
	Metrics   []metricOut `json:"metrics"`
	Legs      []legOut    `json:"legs"`
}

// legOut is one leg of the first round, for reading a result by eye.
type legOut struct {
	Name      string  `json:"name"`
	BuildS    float64 `json:"build_s"`
	RunS      float64 `json:"run_s"`
	AllocMB   float64 `json:"alloc_mb"`
	Events    uint64  `json:"events"`
	Submitted int     `json:"submitted"`
	Confirmed int     `json:"confirmed"`
	Unfunded  int     `json:"unfunded"`
	History   int     `json:"history"`
	Pulls     int     `json:"sync_pulls"`
	Served    int     `json:"sync_blocks_served"`
	Evicted   int     `json:"sync_backlog_evicted"`
	ColdMiss  int     `json:"cold_sync_incomplete"`
	Diverged  bool    `json:"diverged"`
}

type metricOut struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Family family  `json:"family"`
	Value  float64 `json:"value"`
	// Repeats holds the per-round values of a host metric whose Value is
	// their median.
	Repeats []float64 `json:"repeats,omitempty"`
}

func (r *report) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// runOne measures one workload in this process and prints its result;
// the last line of standard output is the driver's JSON object.
func runOne(o options) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (have %s, all)", o.workload, strings.Join(names, ", "))
	}
	rep, tf, err := measure(w, o)
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep)
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, rep); err != nil {
			return err
		}
	}
	if tf != nil {
		path := benchDir() + "/out/trace-" + w.name + ".json"
		if err := writeJSON(path, tf); err != nil {
			return err
		}
		fmt.Printf("# trace written to %s\n", path)
	}
	line, err := json.Marshal(driverLine(rep))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d check(s) failed", w.name, len(rep.Problems))
	}
	return nil
}

// driverLine is the contract's result object: with -trace 0 exactly the
// end-to-end metrics, with -trace 1 exactly the per-layer ones.
func driverLine(rep *report) map[string]any {
	want := endToEnd
	if rep.Traced {
		want = perLayer
	}
	ms := map[string]any{}
	for _, m := range rep.Metrics {
		if m.Family == want {
			ms[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	return map[string]any{"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": ms}
}

func printReport(w *os.File, rep *report) {
	label := ""
	if !rep.Comparable {
		label = "  (scale != 1: NOT COMPARABLE)"
	}
	fmt.Fprintf(w, "# workload %s seed %d scale %g rounds %d%s\n", rep.Workload, rep.Seed, rep.Scale, rep.Rounds, label)
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "%s %s %s", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if len(m.Repeats) > 1 {
			fmt.Fprintf(w, "  # median of %d, min %.4g max %.4g", len(m.Repeats), slices.Min(m.Repeats), slices.Max(m.Repeats))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "# run wall seconds per round %.4g, host slowdown against the calibration reference %.3f\n", rep.RunWallS, rep.Slowdown)
	for _, l := range rep.Legs {
		fmt.Fprintf(w, "# leg %-12s build %.3fs run %.3fs alloc %.0fMB events %d submitted %d confirmed %d unfunded %d history %d pulls %d served %d evicted %d cold-incomplete %d diverged %v\n",
			l.Name, l.BuildS, l.RunS, l.AllocMB, l.Events, l.Submitted, l.Confirmed, l.Unfunded, l.History, l.Pulls, l.Served, l.Evicted, l.ColdMiss, l.Diverged)
	}
	fmt.Fprintf(w, "ops_attempted %d count\nops_failed %d count\n", rep.Attempted, rep.Failed)
	fmt.Fprintf(w, "failed_share %s share\n", strconv.FormatFloat(ratio(float64(rep.Failed), float64(rep.Attempted)), 'g', -1, 64))
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit returns the VCS revision the binary was built from, when the
// toolchain stamped one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
