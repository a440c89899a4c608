package main

// -workload all and -selfcheck: each workload runs in a process of its
// own, so peak_rss_mb is that workload's and no workload warms another's
// heap. The parent re-executes its own binary and reads the children's
// -json reports.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload in a child process and returns its report.
// The child's text output passes through when echo is set.
func runChild(o options, workload, jsonPath string, echo bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-repeats", strconv.Itoa(o.repeats), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64), "-trace", trace, "-json", jsonPath)
	cmd.Stderr = os.Stderr
	if echo {
		cmd.Stdout = os.Stdout
	}
	runErr := cmd.Run()
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", jsonPath, err)
	}
	return &rep, runErr
}

// runAll runs every workload, each in its own process.
func runAll(o options) error {
	var reps []*report
	failed := 0
	for _, w := range workloads {
		rep, err := runChild(o, w.name, benchDir()+"/out/report-"+w.name+".json", true)
		if rep == nil {
			return err
		}
		if err != nil {
			failed++
		}
		reps = append(reps, rep)
	}
	if o.jsonPath != "" {
		if err := writeJSON(o.jsonPath, reps); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed their checks", failed, len(workloads))
	}
	return nil
}

// selfCheck runs the whole untraced set twice on the same code and
// holds the two against the benchmark's own bounds: host metrics may
// differ by their bound, simulated ones not at all.
func selfCheck(o options) error {
	o.trace = false
	bad := 0
	fmt.Printf("%-17s %-31s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, w := range workloads {
		var sets [2]*report
		for i := range sets {
			rep, err := runChild(o, w.name, fmt.Sprintf("%s/out/selfcheck-%s-%d.json", benchDir(), w.name, i+1), false)
			if err != nil {
				return err
			}
			sets[i] = rep
		}
		for _, d := range metricDefs {
			a, okA := sets[0].value(d.name)
			b, okB := sets[1].value(d.name)
			if !okA || !okB {
				continue
			}
			if d.family == perLayer {
				// Untraced children report only the exact layer counts.
				if a != b {
					bad++
					fmt.Printf("%-17s %-31s %14.6g %14.6g  DIFFERS\n", w.name, d.name, a, b)
				}
				continue
			}
			rel := ratio(math.Abs(a-b), math.Min(math.Abs(a), math.Abs(b)))
			verdict := ""
			switch {
			case d.exact && a != b:
				verdict = "  DIFFERS (must repeat exactly)"
				bad++
			case !d.exact && rel > d.bound:
				verdict = "  OUT OF BOUND"
				bad++
			}
			bound := fmt.Sprintf("%.0f%%", 100*d.bound)
			if d.exact {
				bound = "exact"
			}
			fmt.Printf("%-17s %-31s %14.6g %14.6g %8.2f%% %7s%s\n", w.name, d.name, a, b, 100*rel, bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) outside their bound", bad)
	}
	fmt.Println("selfcheck passed: host metrics within their bounds, simulated metrics and counts identical")
	return nil
}

// benchDir finds the benchmark's directory from the repo root (go run
// ./benchmark, run.sh) or from inside it (go test).
func benchDir() string {
	if _, err := os.Stat("benchmark/expected"); err == nil {
		return "benchmark"
	}
	return "."
}
