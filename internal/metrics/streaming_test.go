package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamingExactBelowBudget pins the fixed-budget contract: until
// the budget is crossed, every budgeted answer equals the unbudgeted
// Histogram's, bit for bit.
func TestStreamingExactBelowBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s, h Histogram
	s.SetBudget(1000)
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64()*3 + 10
		s.Add(v)
		h.Add(v)
	}
	if s.est != nil {
		t.Fatal("histogram collapsed below its budget")
	}
	for _, p := range []float64{0, 0.1, 0.5, 0.95, 0.99, 0.999, 1} {
		if got, want := s.Quantile(p), h.Quantile(p); got != want {
			t.Fatalf("Quantile(%v) = %v, want exact %v", p, got, want)
		}
	}
	if s.Mean() != h.Mean() || s.Sum() != h.Sum() || s.N() != h.N() {
		t.Fatal("exact-phase moments diverged from Histogram")
	}
	if s.Stddev() != h.Stddev() {
		t.Fatalf("Stddev = %v, want %v", s.Stddev(), h.Stddev())
	}
}

// TestStreamingEstimateAccuracy feeds 200k uniform samples — far past
// the budget — and requires the P² estimates to land near the true
// quantiles while moments and extremes stay exact.
func TestStreamingEstimateAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s, h Histogram
	s.SetBudget(4096)
	const n = 200_000
	for i := 0; i < n; i++ {
		v := rng.Float64() * 100
		s.Add(v)
		h.Add(v)
	}
	if s.est == nil {
		t.Fatal("histogram never collapsed")
	}
	if s.N() != n || s.Sum() != h.Sum() || s.Min() != h.Min() || s.Max() != h.Max() {
		t.Fatal("moments/extremes must stay exact past the budget")
	}
	for _, p := range []float64{0.5, 0.95, 0.99, 0.999} {
		got, want := s.Quantile(p), h.Quantile(p)
		if math.Abs(got-want) > 1.5 { // 1.5% of the range on 200k uniforms
			t.Fatalf("Quantile(%v) = %v, want ~%v", p, got, want)
		}
	}
	if d := math.Abs(s.Stddev() - h.Stddev()); d > 0.05 {
		t.Fatalf("Stddev drifted %v from exact", d)
	}
}

// TestStreamingDeterminism pins that identical inputs give identical
// estimates — the property that keeps budgeted tables shard- and
// worker-invariant.
func TestStreamingDeterminism(t *testing.T) {
	run := func() []float64 {
		rng := rand.New(rand.NewSource(11))
		var s Histogram
		s.SetBudget(64)
		for i := 0; i < 10_000; i++ {
			s.Add(rng.ExpFloat64())
		}
		return []float64{s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99), s.Quantile(0.999), s.Stddev()}
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestHistogramCollapsePin pins a collapsed histogram's answers to the
// values the two-type implementation (a Histogram handing its samples to
// a separate streaming estimator) gave, bit for bit: Add past the budget,
// a retroactive SetBudget, and every Merge pairing of exact and collapsed
// sides. Its Stddev must also match an unbudgeted twin fed the same
// samples: the moments are exact, so only rounding may separate them.
// The two-type version counted the other side's sum twice when an exact
// side of 32 or more samples merged a collapsed one, and its Stddev read
// 0 there.
func TestHistogramCollapsePin(t *testing.T) {
	type pin struct {
		n                   int
		sum, mean, min, max float64
		q                   [7]float64 // Quantile(0, .3, .5, .95, .99, .999, 1)
	}
	rng := rand.New(rand.NewSource(13))
	// build returns n uniforms under budget (0: none) and an unbudgeted
	// twin of the same samples.
	build := func(n, budget int) (*Histogram, *Histogram) {
		var h, twin Histogram
		h.SetBudget(budget)
		for i := 0; i < n; i++ {
			v := rng.Float64()
			h.Add(v)
			twin.Add(v)
		}
		return &h, &twin
	}
	merge := func(a, at, b, bt *Histogram) (*Histogram, *Histogram) {
		a.Merge(b)
		at.Merge(bt)
		return a, at
	}
	pair := func(an, ab, bn, bb int) (*Histogram, *Histogram) {
		a, at := build(an, ab)
		b, bt := build(bn, bb)
		return merge(a, at, b, bt)
	}
	retro := func() (*Histogram, *Histogram) {
		h, twin := build(5000, 0)
		h.SetBudget(64)
		return h, twin
	}
	chained := func() (*Histogram, *Histogram) {
		a, at := pair(500, 0, 900, 64)
		b, bt := build(700, 64)
		return merge(a, at, b, bt)
	}
	// The cases run in this order: each draws its samples from rng.
	cases := []struct {
		name string
		make func() (*Histogram, *Histogram)
		want pin
	}{
		{"add past budget", func() (*Histogram, *Histogram) { return build(1000, 64) },
			pin{1000, 484.70021155698583, 0.48470021155698584, 0.0002877755724496751, 0.9971204774243787, [7]float64{0.0002877755724496751, 0.48930836090564644, 0.48930836090564644, 0.9450653025950048, 0.9768527127081915, 0.9923058292673715, 0.9971204774243787}}},
		{"retroactive budget", retro,
			pin{5000, 2490.90190656255, 0.49818038131250997, 2.021308662962496e-05, 0.999897431834484, [7]float64{2.021308662962496e-05, 0.5049537487290047, 0.5049537487290047, 0.9504321744707347, 0.9895173396032099, 0.9989844192343869, 0.999897431834484}}},
		{"exact+exact", func() (*Histogram, *Histogram) { return pair(500, 0, 700, 0) },
			pin{1200, 585.1529411849585, 0.48762745098746546, 0.0020665301681573717, 0.9983842754891405, [7]float64{0.0020665301681573717, 0.29523226599362723, 0.47228873645511305, 0.9477007888394384, 0.9920202402665033, 0.9983666226518719, 0.9983842754891405}}},
		{"exact+exact past budget", func() (*Histogram, *Histogram) { return pair(200, 256, 300, 0) },
			pin{500, 247.45617313750182, 0.49491234627500363, 0.002855469997255431, 0.9990878490332129, [7]float64{0.002855469997255431, 0.4989582062666173, 0.4989582062666173, 0.9401046713381779, 0.991997586673267, 0.996624244773885, 0.9990878490332129}}},
		{"exact+collapsed", func() (*Histogram, *Histogram) { return pair(500, 0, 900, 64) },
			pin{1400, 709.8784218717658, 0.5070560156226899, 0.0009244736012847896, 0.9997175619409742, [7]float64{0.0009244736012847896, 0.4931141129209197, 0.4931141129209197, 0.9648928853854063, 0.9977599505749625, 0.9992440495884121, 0.9997175619409742}}},
		{"small-exact+collapsed", func() (*Histogram, *Histogram) { return pair(40, 0, 900, 64) },
			pin{940, 485.546774589449, 0.5165391219036691, 0.0011594705289927798, 0.9980160147193212, [7]float64{0.0011594705289927798, 0.563816411847013, 0.563816411847013, 0.9960587547476184, 0.996401201027968, 0.996401201027968, 0.9980160147193212}}},
		{"tiny-exact+collapsed", func() (*Histogram, *Histogram) { return pair(3, 0, 900, 64) },
			pin{903, 457.01351347449565, 0.5061057735044249, 0.0006085393661389691, 0.999554784268139, [7]float64{0.0006085393661389691, 0.5037442959875091, 0.5037442959875091, 0.9520575877554265, 0.9885329724647455, 0.9968362074802007, 0.999554784268139}}},
		{"collapsed+exact", func() (*Histogram, *Histogram) { return pair(900, 64, 500, 0) },
			pin{1400, 698.1095778354925, 0.4986496984539232, 0.0006822501861408569, 0.9999909757850852, [7]float64{0.0006822501861408569, 0.5026495824003289, 0.5026495824003289, 0.9471979810449123, 0.9917680931915394, 0.9988319463260775, 0.9999909757850852}}},
		{"collapsed+collapsed", func() (*Histogram, *Histogram) { return pair(900, 64, 900, 64) },
			pin{1800, 895.2964553813474, 0.4973869196563041, 0.0007137724193945579, 0.999555208714656, [7]float64{0.0007137724193945579, 0.5003735466081036, 0.5003735466081036, 0.9644324322284871, 0.9973490487842661, 0.999184773629846, 0.999555208714656}}},
		{"merged+collapsed", chained,
			pin{2100, 1064.7819317363615, 0.5070390151125531, 0.00024148771260224943, 0.9996335773965302, [7]float64{0.00024148771260224943, 0.49626259387096405, 0.49626259387096405, 0.9802651986431822, 0.9992018475740984, 0.9995382839950329, 0.9996335773965302}}},
	}
	for _, tc := range cases {
		h, twin := tc.make()
		got := pin{n: h.N(), sum: h.Sum(), mean: h.Mean(), min: h.Min(), max: h.Max()}
		for i, p := range []float64{0, 0.3, 0.5, 0.95, 0.99, 0.999, 1} {
			got.q[i] = h.Quantile(p)
		}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		if sd, want := h.Stddev(), twin.Stddev(); math.Abs(sd-want) > 1e-9*want {
			t.Errorf("%s: Stddev = %v, unbudgeted twin %v", tc.name, sd, want)
		}
	}
}

// TestHistogramBudgetCollapse pins the SetBudget integration: exact
// below the budget (byte-identical rendering), streaming past it with
// exact count/sum/extremes, including a retroactive SetBudget on an
// already-overfull histogram.
func TestHistogramBudgetCollapse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var budgeted, exact Histogram
	budgeted.SetBudget(256)
	for i := 0; i < 100; i++ {
		v := rng.Float64()
		budgeted.Add(v)
		exact.Add(v)
	}
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if budgeted.Quantile(p) != exact.Quantile(p) {
			t.Fatalf("below budget, Quantile(%v) diverged", p)
		}
	}
	for i := 0; i < 10_000; i++ {
		v := rng.Float64()
		budgeted.Add(v)
		exact.Add(v)
	}
	if budgeted.N() != exact.N() || budgeted.Sum() != exact.Sum() {
		t.Fatal("count/sum must stay exact past the budget")
	}
	if budgeted.Min() != exact.Min() || budgeted.Max() != exact.Max() {
		t.Fatal("extremes must stay exact past the budget")
	}
	if d := math.Abs(budgeted.Quantile(0.5) - exact.Quantile(0.5)); d > 0.03 {
		t.Fatalf("p50 estimate off by %v", d)
	}

	var retro Histogram
	for i := 0; i < 5000; i++ {
		retro.Add(rng.Float64())
	}
	retro.SetBudget(64)
	if retro.N() != 5000 {
		t.Fatalf("retroactive budget lost samples: N = %d", retro.N())
	}
	if retro.Quantile(0.5) < 0.3 || retro.Quantile(0.5) > 0.7 {
		t.Fatalf("retroactive collapse p50 = %v, want ~0.5", retro.Quantile(0.5))
	}

	// SetBudget clamps tiny budgets so markers can warm-start.
	var tiny Histogram
	tiny.SetBudget(1)
	for i := 0; i < 40; i++ {
		tiny.Add(float64(i))
	}
	if tiny.Max() != 39 {
		t.Fatalf("tiny-budget Max = %v, want 39", tiny.Max())
	}
}

// TestHistogramBudgetMerge exercises every Merge combination of exact
// and collapsed sides.
func TestHistogramBudgetMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	build := func(n, budget int) *Histogram {
		var h Histogram
		if budget > 0 {
			h.SetBudget(budget)
		}
		for i := 0; i < n; i++ {
			h.Add(rng.Float64())
		}
		return &h
	}
	cases := []struct {
		name string
		a, b *Histogram
	}{
		{"exact+exact", build(500, 0), build(700, 0)},
		{"exact+collapsed", build(500, 0), build(900, 64)},
		{"collapsed+exact", build(900, 64), build(500, 0)},
		{"collapsed+collapsed", build(900, 64), build(900, 64)},
		{"tiny-exact+collapsed", build(3, 0), build(900, 64)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantN := tc.a.N() + tc.b.N()
			wantSum := tc.a.Sum() + tc.b.Sum()
			tc.a.Merge(tc.b)
			if tc.a.N() != wantN {
				t.Fatalf("N = %d, want %d", tc.a.N(), wantN)
			}
			if math.Abs(tc.a.Sum()-wantSum) > 1e-9 {
				t.Fatalf("Sum = %v, want %v", tc.a.Sum(), wantSum)
			}
			if p := tc.a.Quantile(0.5); p < 0.3 || p > 0.7 {
				t.Fatalf("merged p50 = %v, want ~0.5 on uniforms", p)
			}
		})
	}
}

// TestQuantileEdgeCases pins the nearest-rank boundary behavior the
// tail columns rely on: empty, single sample, p=0 and p=1.
func TestQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	for _, p := range []float64{0, 0.5, 0.999, 1} {
		if got := empty.Quantile(p); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", p, got)
		}
	}
	if empty.P999() != 0 {
		t.Fatalf("empty P999 = %v, want 0", empty.P999())
	}

	var single Histogram
	single.Add(42)
	for _, p := range []float64{0, 0.001, 0.5, 0.999, 1} {
		if got := single.Quantile(p); got != 42 {
			t.Fatalf("single-sample Quantile(%v) = %v, want 42", p, got)
		}
	}
	if single.P999() != 42 || single.Min() != 42 || single.Max() != 42 {
		t.Fatal("single-sample accessors must all return the sample")
	}

	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %v, want the minimum", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("Quantile(1) = %v, want the maximum", got)
	}
	// Nearest-rank on 1000 ordered samples: p999 is sample 999.
	if got := h.P999(); got != 999 {
		t.Fatalf("P999 = %v, want 999", got)
	}
	if got := h.Quantile(0.5); got != 500 {
		t.Fatalf("Quantile(0.5) = %v, want 500", got)
	}
}
