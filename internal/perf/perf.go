// Package perf is the committed performance-trajectory harness: it runs
// a curated suite of micro and end-to-end benchmarks over the hot paths
// of the reproduction (event loop, gossip dedup, signature batching,
// lattice batch settlement, chain store insertion, plus E1/E2/E9
// end-to-end), normalizes the results into a stable JSON schema, and
// compares two reports under a regression threshold. The committed
// BENCH_<pr>.json files at the repository root are its output — the
// per-PR perf history every "raw speed" claim is anchored against — and
// the CI bench-gate job is its consumer.
//
// Invariants the harness relies on:
//
//   - Determinism: every suite benchmark derives its workload from fixed
//     seeds, so allocs/op and sim-throughput are bit-stable run to run;
//     only ns/op carries machine noise.
//   - Worker-count invariance: suite benchmarks pin Workers to 1, so a
//     report means the same thing on a 2-core CI runner and a 32-core
//     workstation.
//   - Calibration: each report embeds the ns/op of a fixed SHA-256
//     reference workload measured in the same process; comparisons use
//     ns/op ratios normalized by it, which cancels most of the raw
//     machine-speed difference between the committed baseline and the
//     machine re-checking it.
package perf

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// SchemaVersion identifies the BENCH JSON layout. Bump only with a
// migration note in PERFORMANCE.md; Decode rejects unknown versions.
const SchemaVersion = 1

// Entry is one benchmark's normalized result.
type Entry struct {
	// Name is the canonical benchmark id, e.g. "sim/event-loop".
	Name string `json:"name"`
	// Kind is "micro" (one subsystem) or "e2e" (a full experiment).
	Kind string `json:"kind"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are heap cost per operation; both are
	// machine-independent for a deterministic workload.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// SimTPS is the simulated settled-transfer throughput the workload
	// achieved (transfers per simulated second), when the benchmark has
	// one; 0 means not applicable.
	SimTPS float64 `json:"sim_tps,omitempty"`
	// Iters is how many operations the measurement averaged over.
	Iters int `json:"iters"`
}

// Report is one committed benchmark trajectory point (one BENCH file).
type Report struct {
	// Schema is SchemaVersion at encode time.
	Schema int `json:"schema"`
	// Baseline names the trajectory point, conventionally the PR number
	// ("007" for BENCH_007.json).
	Baseline string `json:"baseline"`
	// Scale is the suite workload scale the report was generated at.
	// Compare refuses to diff reports taken at different scales.
	Scale float64 `json:"scale"`
	// GoVersion, GOOS and GOARCH record the toolchain and platform.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// CalibrationNsPerOp is the fixed SHA-256 reference workload's ns/op
	// on the generating machine (see package doc).
	CalibrationNsPerOp float64 `json:"calibration_ns_per_op"`
	// Entries are the benchmark results, sorted by Name.
	Entries []Entry `json:"entries"`
}

// Lookup returns the entry with the given name.
func (r *Report) Lookup(name string) (Entry, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Encode renders the report in its canonical byte form: schema fields in
// declaration order, entries sorted by name, two-space indentation, one
// trailing newline. Encode(Decode(b)) == b for any canonical b, which is
// what keeps committed BENCH files diff-stable.
func Encode(r *Report) ([]byte, error) {
	cp := *r
	cp.Entries = append([]Entry(nil), r.Entries...)
	sort.Slice(cp.Entries, func(i, j int) bool { return cp.Entries[i].Name < cp.Entries[j].Name })
	out, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("perf: encode: %w", err)
	}
	return append(out, '\n'), nil
}

// Decode parses a BENCH report and validates its schema version.
func Decode(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: decode: %w", err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("perf: unsupported schema %d (want %d)", r.Schema, SchemaVersion)
	}
	return &r, nil
}

// Result is one measured benchmark before normalization into an Entry.
type Result struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	SimTPS      float64
	Iters       int
}

// measure times op, which must perform exactly n operations per call,
// growing n until the run lasts at least target. It reports per-op wall
// time from that run and per-op heap cost from a second run of the same
// n (see heapCost), so they are exact for a single-goroutine op and
// deterministic for a seeded workload.
func measure(target time.Duration, op func(n int)) Result {
	if target <= 0 {
		target = time.Second
	}
	// Warm once outside the measurement (pools, lazy init, code paths).
	op(1)
	n := 1
	for {
		runtime.GC()
		start := time.Now()
		op(n)
		elapsed := time.Since(start)
		if elapsed >= target || n >= 1e9 {
			if elapsed <= 0 {
				elapsed = 1
			}
			bytes, objects := heapCost(op, n)
			return Result{
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
				BytesPerOp:  float64(bytes) / float64(n),
				AllocsPerOp: float64(objects) / float64(n),
				Iters:       n,
			}
		}
		// Grow like testing.B: aim past the target, bounded to 100x.
		grow := int64(float64(n) * 1.5 * float64(target) / float64(elapsed+1))
		if grow < int64(n)+1 {
			grow = int64(n) + 1
		}
		if grow > int64(n)*100 {
			grow = int64(n) * 100
		}
		n = int(grow)
	}
}

// heapCost runs op(n) on a single P and returns the bytes and objects it
// allocated. MemStats is process-wide, so with a second P a runtime
// background goroutine can add an object or five to the delta; with one P
// nothing runs beside op, which is how testing.AllocsPerRun gets exact
// counts. The timed run is left unpinned: one P would put the collector
// on the mutator's P and move every ns/op.
func heapCost(op func(n int), n int) (bytes, objects uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	op(n)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}
