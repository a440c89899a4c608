package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestSmokeAllWorkloads runs every workload small, traced, and checks
// the contract on its output: every metric BENCHMARK.json names comes
// out exactly once, finite, under a legal name, and the two rounds of a
// run agree on everything simulated (measure reports a disagreement as
// a failed check).
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rep, tf, err := measure(w, options{seed: 3, repeats: 2, scale: 0.02, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.Problems {
				t.Errorf("check failed: %s", p)
			}
			if rep.Comparable {
				t.Error("a scaled run must be labelled not comparable")
			}
			if rep.Rounds != 2 || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("rounds %d attempted %d failed %d", rep.Rounds, rep.Attempted, rep.Failed)
			}
			seen := map[string]int{}
			for _, m := range rep.Metrics {
				seen[m.Name]++
				if !validName(m.Name) {
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", m.Name, m.Value)
				}
			}
			for _, d := range metricDefs {
				if seen[d.name] != 1 {
					t.Errorf("%s emitted %d times", d.name, seen[d.name])
				}
			}
			if len(seen) != len(metricDefs) {
				t.Errorf("%d distinct metrics emitted, table has %d", len(seen), len(metricDefs))
			}
			if tf == nil || len(tf.Spans) == 0 {
				t.Fatal("traced run kept no spans")
			}
			for _, s := range tf.Spans {
				if s.EndMs < s.StartMs || s.Parent >= s.ID {
					t.Errorf("span %+v is malformed", s)
				}
			}
		})
	}
}

// TestSeedChangesInputsOnly: another seed moves the simulated metrics,
// the same seed does not.
func TestSeedChangesInputsOnly(t *testing.T) {
	w, _ := workloadByName("dag-saturation")
	sim := func(seed int64) values {
		rd, err := runRound(w, &env{seed: seed, scale: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		return rd.simValues()
	}
	a, b, c := sim(5), sim(5), sim(6)
	if d := diff(a, b); len(d) != 0 {
		t.Errorf("same seed disagrees on %v", d)
	}
	if d := diff(a, c); len(d) == 0 {
		t.Error("seeds 5 and 6 produced identical runs")
	}
}

func TestScheduleIsPoissonOfFixedCount(t *testing.T) {
	ld := load{seedOff: 1, accounts: 8, ops: 500, span: 10 * time.Second, maxAmount: 9,
		keep: func(p workload.Payment) bool { return p.From != 7 }}
	a, b, c := ld.schedule(1), ld.schedule(1), ld.schedule(2)
	if len(a) != 500 || len(c) != 500 {
		t.Fatalf("got %d and %d payments, want 500", len(a), len(c))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 is not reproducible at payment %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i].At < 0 || a[i].At >= ld.span || i > 0 && a[i].At < a[i-1].At {
			t.Fatalf("payment %d at %v breaks [0, span) order", i, a[i].At)
		}
		if a[i].From == 7 {
			t.Fatalf("payment %d escaped the filter", i)
		}
	}
	if same {
		t.Error("seeds 1 and 2 drew the same schedule")
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/sim.(*Simulator).Run"}, "sim"},
		{[]string{"repro/internal/netsim.(*dex[go.shape.[32]uint8]).id"}, "netsim"},
		{[]string{"repro/internal/netsim.(*bitRows[repro/internal/hashx.Hash]).set"}, "netsim"},
		{[]string{"repro/internal/par.Map"}, ""},
		{[]string{"crypto/internal/edwards25519/field.feMul"}, "keys"},
		{[]string{"crypto/internal/fips140/edwards25519/field.feMulGeneric"}, "keys"},
		{[]string{"crypto/ed25519.Verify"}, "keys"},
		{[]string{"crypto/sha512.blockAVX2"}, "keys"},
		{[]string{"crypto/sha256.blockSHANI"}, "hashx"},
		{[]string{"crypto/internal/fips140/sha256.blockSHANI"}, "hashx"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall"}, "runtime-map"},
		{[]string{"runtime.mapaccess2_fast64"}, "runtime-map"},
		{[]string{"aeshashbody", "runtime.mapaccess1"}, "runtime-map"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime-gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime-gc"},
		{[]string{"runtime.mallocgc", "repro/internal/sim.(*Simulator).At"}, "runtime-alloc"},
		// A runtime helper takes the bucket of its nearest runtime caller.
		{[]string{"runtime.memmove", "runtime.growslice", "repro/internal/netsim.(*NanoNet).publish"}, "runtime-alloc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "main.runLeg"}, "runtime-alloc"},
		{[]string{"runtime.(*mspan).base", "runtime.findObject", "runtime.scanobject"}, "runtime-gc"},
		{[]string{"memeqbody", "repro/internal/utxo.(*Set).Get"}, "runtime-other"},
		{[]string{"runtime.memmove", "repro/internal/trie.(*Trie).Put"}, "runtime-other"},
		// An inlined leaf is listed before the function it was inlined
		// into, and decides.
		{[]string{"repro/internal/hashx.Sum", "repro/internal/lattice.(*Block).Hash"}, "hashx"},
		{[]string{"sort.insertionSort", "repro/internal/netsim.(*chainRuntime).collect"}, "stdlib"},
		{[]string{"math/rand.(*Rand).Int63n"}, "stdlib"},
		{[]string{"main.runLeg"}, "harness"},
		{[]string{"repro/benchmark.runLeg"}, "harness"},
		{nil, ""},
	} {
		if got := classifyStack(tc.stack); got != tc.want {
			t.Errorf("classifyStack(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
	for _, l := range repoLayers {
		if got := classify("repro/internal/" + l + ".F"); got != l {
			t.Errorf("layer %s classifies as %q", l, got)
		}
	}
}

// TestDecodeProfile hand-encodes a two-sample profile: one location
// carries an inlined frame, and one sample packs its ids.
func TestDecodeProfile(t *testing.T) {
	var pb protoWriter
	for _, s := range []string{"", "leaf", "inlinedInto", "caller"} {
		pb.bytes(6, []byte(s))
	}
	fn := func(id, name uint64) {
		var f protoWriter
		f.varint(1, id)
		f.varint(2, name)
		pb.bytes(5, f.buf)
	}
	fn(1, 1)
	fn(2, 2)
	fn(3, 3)
	loc := func(id uint64, fns ...uint64) {
		var l protoWriter
		l.varint(1, id)
		for _, f := range fns {
			var line protoWriter
			line.varint(1, f)
			line.varint(2, 42)
			l.bytes(4, line.buf)
		}
		pb.bytes(4, l.buf)
	}
	loc(10, 1, 2) // leaf inlined into inlinedInto
	loc(11, 3)
	var s1 protoWriter
	s1.bytes(1, []byte{10, 11})        // packed location ids
	s1.bytes(2, []byte{3, 0x80, 0x01}) // packed values: 3 samples, 128 ns
	pb.bytes(2, s1.buf)
	var s2 protoWriter
	s2.varint(1, 11) // unpacked
	s2.varint(2, 1)
	s2.varint(2, 7)
	pb.bytes(2, s2.buf)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(pb.buf); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d samples, want 2", len(got))
	}
	if g := got[0]; g.count != 3 || g.nanos != 128 || len(g.stack) != 3 ||
		g.stack[0] != "leaf" || g.stack[1] != "inlinedInto" || g.stack[2] != "caller" {
		t.Errorf("sample 0 = %+v", g)
	}
	if g := got[1]; g.count != 1 || g.nanos != 7 || len(g.stack) != 1 || g.stack[0] != "caller" {
		t.Errorf("sample 1 = %+v", g)
	}
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("garbage decoded without error")
	}
}

// validName reports whether a metric name fits the contract's alphabet.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || !strings.ContainsRune("_.-", c)) {
			return false
		}
	}
	return true
}

type protoWriter struct{ buf []byte }

func (w *protoWriter) uvarint(v uint64) {
	for v >= 0x80 {
		w.buf = append(w.buf, byte(v)|0x80)
		v >>= 7
	}
	w.buf = append(w.buf, byte(v))
}

func (w *protoWriter) varint(field int, v uint64) {
	w.uvarint(uint64(field)<<3 | 0)
	w.uvarint(v)
}

func (w *protoWriter) bytes(field int, b []byte) {
	w.uvarint(uint64(field)<<3 | 2)
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// TestBenchmarkJSONMatchesTable holds BENCHMARK.json to the metric
// table and the workload list the program actually runs.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	listed := append(append([]metric(nil), spec.EndToEnd...), spec.PerLayer...)
	if len(listed) != len(metricDefs) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the table has %d", len(listed), len(metricDefs))
	}
	for i, d := range metricDefs {
		m := listed[i]
		wantFamily := endToEnd
		if i >= len(spec.EndToEnd) {
			wantFamily = perLayer
		}
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound || d.family != wantFamily {
			t.Errorf("metric %d: BENCHMARK.json has %+v, table has %+v", i, m, d)
		}
	}
}
