package main

// Measuring one workload: rounds of (set up every leg, run it, read it,
// check it) until both the repeat count and the time budget are met,
// then the checks and the report. End-to-end host numbers come only
// from untraced rounds; a traced invocation interleaves traced rounds
// so the difference between the two is the tracing overhead.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// minSetups is how many set-up samples setup_s is the median of, at
// least; rounds short of it are topped up with set-up-only passes.
const minSetups = 5

// runLeg builds and drives one leg. On a traced round (the env carries
// a tracer) the run region is profiled and the leg's artifacts are
// harvested for replay.
func runLeg(l leg, e *env) (legResult, error) {
	r := legResult{name: l.name}
	traced := e.tr != nil
	var err error
	e.tr.span(l.name, func() {
		r.cal[0] = e.calibrate()
		t0 := time.Now()
		var run *running
		if run, err = l.build(e); err != nil {
			return
		}
		r.buildS = since(t0)
		err = e.tr.profile(l.name, func() {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t1 := time.Now()
			e.tr.span("run", run.run)
			r.runS = since(t1)
			runtime.ReadMemStats(&after)
			r.allocBytes = after.TotalAlloc - before.TotalAlloc
			r.mallocs = after.Mallocs - before.Mallocs
			r.gcCycles = after.NumGC - before.NumGC
			r.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
		})
		if err != nil {
			return
		}
		r.cal[1] = e.calibrate()
		e.tr.span("collect", func() { run.collect(&r) })
		e.tr.span("check", func() { run.check(&r, traced) })
		if traced {
			var ms runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms)
			r.liveHeap = ms.HeapInuse
			runtime.KeepAlive(run)
		}
	})
	// Start the next leg from a collected heap, so one leg's garbage is
	// not the next one's collection work.
	runtime.GC()
	if err != nil {
		return r, fmt.Errorf("leg %s: %w", l.name, err)
	}
	return r, nil
}

func runRound(w workloadDef, e *env) (round, error) {
	var rd round
	var err error
	e.tr.span(w.name, func() {
		for _, l := range w.legs {
			var lr legResult
			if lr, err = runLeg(l, e); err != nil {
				return
			}
			rd.legs = append(rd.legs, lr)
		}
	})
	return rd, err
}

// setupOnly builds every leg once and discards it: one more set-up
// sample without paying for a run.
func setupOnly(w workloadDef, e *env) (float64, error) {
	total := 0.0
	for _, l := range w.legs {
		t0 := time.Now()
		if _, err := l.build(e); err != nil {
			return 0, fmt.Errorf("leg %s: %w", l.name, err)
		}
		total += since(t0)
		runtime.GC()
	}
	return total, nil
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	CPU      cpuTable           `json:"cpu"`
	Replay   map[string]float64 `json:"replay_ns"`
}

func measure(w workloadDef, o options) (*report, *traceFile, error) {
	start := time.Now()
	plain := &env{seed: o.seed, scale: o.scale}
	tracing := plain
	var tr *tracer
	minRounds := o.repeats
	if o.trace {
		tr = newTracer()
		tracing = &env{seed: o.seed, scale: o.scale, tr: tr}
		minRounds = max(minRounds, 2) // one of each kind at least
	}
	// A traced invocation alternates, untraced first.
	var untraced, traced []round
	for n := 0; n < minRounds || since(start) < o.seconds; n++ {
		e, into := plain, &untraced
		if o.trace && n%2 == 1 {
			e, into = tracing, &traced
		}
		rd, err := runRound(w, e)
		if err != nil {
			return nil, nil, err
		}
		*into = append(*into, rd)
	}
	all := append(append([]round(nil), untraced...), traced...)

	var setups []float64
	for _, rd := range all {
		setups = append(setups, rd.setupS())
	}
	for len(setups) < minSetups {
		s, err := setupOnly(w, plain)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, s)
	}

	rep := &report{
		Workload: w.name, Seed: o.seed, Scale: o.scale, Comparable: o.scale == 1, Traced: o.trace,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Rounds: len(all),
	}
	first := all[0]
	rep.Attempted, rep.Failed = first.ops()
	exact := first.simValues()
	for i := range first.legs {
		rep.Legs = append(rep.Legs, first.legs[i].out())
	}

	// Every round replays the same inputs, so the simulated side must
	// come out the same each time.
	for i, rd := range all[1:] {
		for _, name := range diff(exact, rd.simValues()) {
			rep.Problems = append(rep.Problems, fmt.Sprintf("round %d disagrees with round 1 on %s", i+2, name))
		}
	}

	host := map[string][]float64{}
	var raw []float64 // uncalibrated wall seconds, for the overhead ratio
	for _, rd := range untraced {
		host["run_s"] = append(host["run_s"], rd.runS()/rd.slowdown())
		raw = append(raw, rd.runS())
		rep.Slowdown = append(rep.Slowdown, rd.slowdown())
		host["alloc_mb"] = append(host["alloc_mb"], rd.sum(func(l *legResult) float64 { return float64(l.allocBytes) / mb }))
		host["mallocs_k"] = append(host["mallocs_k"], rd.sum(func(l *legResult) float64 { return float64(l.mallocs) / 1000 }))
	}
	host["setup_s"] = setups
	vals := values{}
	for name, xs := range host {
		vals[name] = median(xs)
	}
	vals["confirmed_per_host_s"] = ratio(first.confirmed(), vals["run_s"])
	for k, v := range exact {
		vals[k] = v
	}

	rep.RunWallS = raw
	var tf *traceFile
	if o.trace {
		layer, file, problems, err := tracedValues(w, o, tr, traced, exact, median(raw))
		if err != nil {
			return nil, nil, err
		}
		for k, v := range layer {
			vals[k] = v
		}
		tf = file
		rep.Problems = append(rep.Problems, problems...)
	}
	// Read last, so everything above is inside the high-water mark.
	vals["peak_rss_mb"] = peakRSSMB()

	rep.Problems = append(rep.Problems, invariants(w, first)...)
	if o.seed == 1 && o.scale == 1 {
		path := benchDir() + "/expected/" + w.name + ".json"
		if o.update {
			if err := writeJSON(path, exact); err != nil {
				return nil, nil, err
			}
		}
		problems, err := compareExpected(path, exact)
		if err != nil {
			return nil, nil, err
		}
		rep.Problems = append(rep.Problems, problems...)
	}
	rep.Correct = len(rep.Problems) == 0

	for _, d := range metricDefs {
		v, ok := vals[d.name]
		if !ok {
			if d.family == endToEnd || o.trace {
				return nil, nil, fmt.Errorf("internal: metric %s was not computed", d.name)
			}
			continue // host-side layer metrics exist only on a traced run
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("internal: metric %s is %v", d.name, v)
		}
		rep.Metrics = append(rep.Metrics, metricOut{Name: d.name, Unit: d.unit, Family: d.family, Value: v, Repeats: host[d.name]})
	}
	return rep, tf, nil
}

// tracedValues turns the traced rounds into the host-side per-layer
// metrics: the CPU table, the runtime counters and per-leg split of the
// last traced round, and the replay of what that round left behind.
func tracedValues(w workloadDef, o options, tr *tracer, traced []round, exact values, untracedRunS float64) (values, *traceFile, []string, error) {
	vals := values{}
	var problems []string
	cpu, err := tr.attribute()
	if err != nil {
		return nil, nil, nil, err
	}
	for _, l := range cpuLayers {
		// Seconds per traced round, so the table adds up to one run.
		vals["cpu."+l+"_s"] = cpu.Seconds[l] / float64(len(traced))
	}
	vals["trace.samples"] = float64(cpu.Samples)
	share := ratio(float64(cpu.Attributed), float64(cpu.Samples))
	vals["trace.attributed_share"] = share
	if share < 0.95 && o.scale == 1 {
		problems = append(problems, fmt.Sprintf("only %.3f of CPU samples attributed to a layer (unclaimed: %s)", share, cpu.topUnattributed(5)))
	}
	var tracedRun []float64
	for _, rd := range traced {
		tracedRun = append(tracedRun, rd.runS())
	}
	vals["trace.overhead_share"] = ratio(median(tracedRun), untracedRunS) - 1

	last := traced[len(traced)-1]
	for k, v := range last.hostLayerValues() {
		vals[k] = v
	}
	in := replayInput{events: uint64(exact["sim.events"]), msgs: int(exact["sim.msgs_sent"]), links: w.links, budget: gossipBudget}
	for _, l := range last.legs {
		in.harvest.merge(l.harvest)
		in.samples += l.samples()
	}
	var replay map[string]float64
	tr.span(w.name, func() { replay, err = replayAll(tr, in) })
	if err != nil {
		problems = append(problems, err.Error())
	}
	for k, v := range replay {
		vals[k] = v
	}
	return vals, &traceFile{Workload: w.name, Seed: o.seed, Spans: tr.spans, CPU: cpu, Replay: replay}, problems, nil
}

func (l *legResult) out() legOut {
	return legOut{
		Name: l.name, BuildS: l.buildS, RunS: l.runS, AllocMB: float64(l.allocBytes) / mb,
		Events: l.events, Submitted: l.submitted, Confirmed: l.confirmed, Unfunded: l.unfunded, History: l.history,
		Pulls: l.sync.SyncPulls, Served: l.sync.BlocksServed, Evicted: l.sync.BacklogEvicted, ColdMiss: l.coldMissed,
		Diverged: l.diverged,
	}
}

// samples counts what the leg's latency histograms absorbed.
func (l *legResult) samples() int {
	n := 0
	if l.chain != nil {
		n += l.chain.Propagation.N()
	}
	if l.nano != nil {
		n += l.nano.ConfirmLatency.N()
	}
	if l.tangle != nil {
		n += l.tangle.ConfirmLatency.N()
	}
	return n
}

// diff names the metrics on which two value sets differ.
func diff(want, got values) []string {
	var names []string
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			names = append(names, k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

// invariants are the checks that hold under any seed and scale.
func invariants(w workloadDef, rd round) []string {
	var out []string
	attempted, failed := rd.ops()
	if failed > attempted {
		out = append(out, fmt.Sprintf("failed %d exceeds attempted %d", failed, attempted))
	}
	for _, l := range rd.legs {
		if l.confirmed > l.submitted {
			out = append(out, fmt.Sprintf("leg %s confirmed %d of %d submitted", l.name, l.confirmed, l.submitted))
		}
		if l.unfunded < 0 || l.unfunded > l.submitted {
			out = append(out, fmt.Sprintf("leg %s: %d unfunded of %d submitted", l.name, l.unfunded, l.submitted))
		}
		if l.diverged {
			out = append(out, fmt.Sprintf("leg %s: replicas disagree at quiescence", l.name))
		}
		if l.coldMissed > 0 {
			out = append(out, fmt.Sprintf("leg %s: cold sync incomplete", l.name))
		}
	}
	if w.faultFree {
		v := rd.simValues()
		for _, d := range metricDefs {
			if (strings.HasPrefix(d.name, "netsim.sync.") || d.name == "sim.msgs_dropped") && v[d.name] != 0 {
				out = append(out, fmt.Sprintf("%s is %g on a fault-free workload", d.name, v[d.name]))
			}
		}
	}
	return out
}

// compareExpected checks the exact metrics against the committed file.
func compareExpected(path string, got values) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("expected values: %w (run with -update to write them)", err)
	}
	var want values
	if err := json.Unmarshal(data, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []string
	for _, name := range diff(want, got) {
		out = append(out, fmt.Sprintf("%s: expected %v, got %v (%s)", name, want[name], got[name], path))
	}
	return out, nil
}
