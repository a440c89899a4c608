package perf

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

func sampleReport() *Report {
	return &Report{
		Schema: SchemaVersion, Baseline: "006", Scale: 1,
		GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64",
		CalibrationNsPerOp: 50_000,
		Entries: []Entry{
			{Name: "sim/event-loop", Kind: "micro", NsPerOp: 1_000_000, BytesPerOp: 4096, AllocsPerOp: 128, Iters: 100},
			{Name: "e2e/E9", Kind: "e2e", NsPerOp: 2_500_000_000, BytesPerOp: 1 << 20, AllocsPerOp: 5_000, SimTPS: 12.5, Iters: 3},
		},
	}
}

// The committed BENCH files must be byte-stable: decoding a canonical
// encoding and re-encoding it reproduces the bytes exactly.
func TestEncodeDecodeRoundTripByteIdentical(t *testing.T) {
	first, err := Encode(sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Encode(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

func TestEncodeSortsEntries(t *testing.T) {
	r := sampleReport()
	r.Entries[0], r.Entries[1] = r.Entries[1], r.Entries[0]
	out, err := Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	if e9 := bytes.Index(out, []byte("e2e/E9")); e9 > bytes.Index(out, []byte("sim/event-loop")) {
		t.Fatalf("entries not sorted by name:\n%s", out)
	}
	// Encode must not mutate the caller's report.
	if r.Entries[0].Name != "e2e/E9" {
		t.Fatal("Encode reordered the caller's entries in place")
	}
}

func TestDecodeRejectsUnknownSchema(t *testing.T) {
	if _, err := Decode([]byte(`{"schema": 99}`)); err == nil {
		t.Fatal("schema 99 accepted")
	}
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// mutate returns a copy of base with the named entry transformed.
func mutate(base *Report, name string, f func(*Entry)) *Report {
	cp := *base
	cp.Entries = append([]Entry(nil), base.Entries...)
	for i := range cp.Entries {
		if cp.Entries[i].Name == name {
			f(&cp.Entries[i])
		}
	}
	return &cp
}

func TestCompareIdenticalReportsPass(t *testing.T) {
	base := sampleReport()
	deltas, ok, err := Compare(base, sampleReport(), 0.15)
	if err != nil || !ok {
		t.Fatalf("identical reports failed the gate: ok=%v err=%v deltas=%+v", ok, err, deltas)
	}
}

func TestCompareExactlyAtThresholdPasses(t *testing.T) {
	base := sampleReport()
	cur := mutate(base, "sim/event-loop", func(e *Entry) {
		e.NsPerOp *= 1.15
		e.AllocsPerOp *= 1.15
	})
	if _, ok, err := Compare(base, cur, 0.15); err != nil || !ok {
		t.Fatalf("exactly-at-threshold must pass: ok=%v err=%v", ok, err)
	}
	over := mutate(base, "sim/event-loop", func(e *Entry) { e.NsPerOp *= 1.1501 })
	if _, ok, _ := Compare(base, over, 0.15); ok {
		t.Fatal("just-over-threshold ns/op must fail")
	}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	base := sampleReport()
	cur := mutate(base, "sim/event-loop", func(e *Entry) { e.AllocsPerOp *= 2 })
	deltas, ok, err := Compare(base, cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("2x allocs/op must fail the gate")
	}
	if deltas[0].Status != StatusRegression || !strings.Contains(deltas[0].Why, "allocs") {
		t.Fatalf("unexpected delta: %+v", deltas[0])
	}
}

func TestCompareZeroAllocBaselineDefended(t *testing.T) {
	base := sampleReport()
	base.Entries[0].AllocsPerOp = 0
	cur := mutate(base, "sim/event-loop", func(e *Entry) { e.AllocsPerOp = 1 })
	if _, ok, _ := Compare(base, cur, 0.15); ok {
		t.Fatal("allocation appearing on a zero-alloc path must fail")
	}
	same := mutate(base, "sim/event-loop", func(e *Entry) { e.AllocsPerOp = 0 })
	if _, ok, _ := Compare(base, same, 0.15); !ok {
		t.Fatal("zero-alloc path staying zero-alloc must pass")
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Entries = cur.Entries[:1] // drop e2e/E9
	deltas, ok, err := Compare(base, cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("a benchmark disappearing must fail the gate")
	}
	found := false
	for _, d := range deltas {
		if d.Name == "e2e/E9" && d.Status == StatusMissing {
			found = true
		}
	}
	if !found {
		t.Fatalf("no MISSING delta for e2e/E9: %+v", deltas)
	}
}

func TestCompareNewBenchmarkPasses(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Entries = append(cur.Entries, Entry{Name: "chain/store-add", Kind: "micro", NsPerOp: 1, AllocsPerOp: 1})
	deltas, ok, err := Compare(base, cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a new benchmark must not fail the gate")
	}
	found := false
	for _, d := range deltas {
		if d.Name == "chain/store-add" && d.Status == StatusNew {
			found = true
		}
	}
	if !found {
		t.Fatalf("no new-status delta: %+v", deltas)
	}
}

// The sim_tps column is informational: a halved simulated throughput
// renders in the delta table but never fails the gate, and benchmarks
// without a sim clock show the dash.
func TestCompareSimTPSInformational(t *testing.T) {
	base := sampleReport()
	cur := mutate(base, "e2e/E9", func(e *Entry) { e.SimTPS /= 2 })
	deltas, ok, err := Compare(base, cur, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a sim_tps drop alone must not fail the gate")
	}
	var e9 Delta
	for _, d := range deltas {
		if d.Name == "e2e/E9" {
			e9 = d
		}
	}
	if e9.SimTPSRatio < 0.499 || e9.SimTPSRatio > 0.501 {
		t.Fatalf("SimTPSRatio = %v, want 0.5", e9.SimTPSRatio)
	}
	var buf bytes.Buffer
	if err := RenderDeltas(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sim_tps ratio") {
		t.Fatalf("delta table missing the sim_tps column:\n%s", out)
	}
	if !strings.Contains(out, "0.500") {
		t.Fatalf("delta table missing the 0.500 sim_tps ratio:\n%s", out)
	}
	// sim/event-loop has no sim clock on either side: its row keeps the
	// dash, and its delta carries no ratio.
	for _, d := range deltas {
		if d.Name == "sim/event-loop" && d.SimTPSRatio != 0 {
			t.Fatalf("clockless benchmark grew a SimTPSRatio: %+v", d)
		}
	}
}

func TestCompareScaleMismatchRejected(t *testing.T) {
	base := sampleReport()
	cur := sampleReport()
	cur.Scale = 0.5
	if _, _, err := Compare(base, cur, 0.15); err == nil {
		t.Fatal("reports at different scales compared")
	}
}

// Calibration normalization: a candidate measured on a machine that is
// 2x slower everywhere (benchmarks AND calibration) is NOT a
// regression; the same raw numbers without the calibration shift are.
func TestCompareCalibrationNormalizes(t *testing.T) {
	base := sampleReport()
	slowMachine := sampleReport()
	slowMachine.CalibrationNsPerOp *= 2
	for i := range slowMachine.Entries {
		slowMachine.Entries[i].NsPerOp *= 2
	}
	if _, ok, err := Compare(base, slowMachine, 0.15); err != nil || !ok {
		t.Fatalf("uniformly slower machine flagged as regression: ok=%v err=%v", ok, err)
	}
	sameMachineSlower := sampleReport()
	for i := range sameMachineSlower.Entries {
		sameMachineSlower.Entries[i].NsPerOp *= 2
	}
	if _, ok, _ := Compare(base, sameMachineSlower, 0.15); ok {
		t.Fatal("real 2x slowdown passed under equal calibration")
	}
}

// committedBaseline is the file the Makefile's BENCH_BASELINE names.
const committedBaseline = "../../BENCH_056.json"

// The acceptance demo for the CI gate: take the committed baseline,
// inject a 2x ns/op slowdown into every entry, and require the gate to
// fail — and require the untouched baseline to pass against itself.
func TestGateFailsOnInjectedSlowdown(t *testing.T) {
	data, err := os.ReadFile(committedBaseline)
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	base, err := Decode(data)
	if err != nil {
		t.Fatalf("committed baseline does not decode: %v", err)
	}
	if len(base.Entries) < 8 {
		t.Fatalf("committed baseline has %d entries, want >= 8", len(base.Entries))
	}
	if _, ok, err := Compare(base, base, DefaultThreshold); err != nil || !ok {
		t.Fatalf("baseline does not pass against itself: ok=%v err=%v", ok, err)
	}
	slowed := *base
	slowed.Entries = append([]Entry(nil), base.Entries...)
	for i := range slowed.Entries {
		slowed.Entries[i].NsPerOp *= 2
	}
	deltas, ok, err := Compare(base, &slowed, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("gate passed a 2x ns/op slowdown")
	}
	var buf bytes.Buffer
	if err := RenderDeltas(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), string(StatusRegression)) {
		t.Fatalf("rendered table carries no regression marker:\n%s", buf.String())
	}
}

// The committed baseline must be in canonical byte form (Encode of its
// Decode), or diffs against regenerated baselines churn.
func TestCommittedBaselineIsCanonical(t *testing.T) {
	data, err := os.ReadFile(committedBaseline)
	if err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	r, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, out) {
		t.Fatal(committedBaseline + " is not in canonical encoding; regenerate with make bench-commit")
	}
}

// Every micro benchmark must run at tiny scale — the smoke that keeps
// the suite itself from rotting between baseline commits. E2E members
// are exercised by the experiment tests and by report generation.
func TestSuiteMicroSmoke(t *testing.T) {
	for _, b := range Suite() {
		if b.Kind != "micro" {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) { b.Op(0.05, 1) })
	}
}

var measureSink any

// Allocation counts are the machine-independent half of the gate: for a
// deterministic workload two measurements must agree exactly.
func TestMeasureAllocsDeterministic(t *testing.T) {
	op := func(n int) {
		for i := 0; i < n; i++ {
			measureSink = make([]byte, 1024)
			measureSink = map[int]int{1: 1}
		}
	}
	a := measure(time.Millisecond, op)
	b := measure(time.Millisecond, op)
	if a.AllocsPerOp != b.AllocsPerOp {
		t.Fatalf("allocs/op not deterministic: %v vs %v", a.AllocsPerOp, b.AllocsPerOp)
	}
	if a.AllocsPerOp < 2 {
		t.Fatalf("allocs/op = %v, want >= 2", a.AllocsPerOp)
	}
}
