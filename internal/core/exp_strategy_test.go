package core

// Tests for the behavior-driven experiments: E16/E17 must be
// deterministic for any worker count (the acceptance invariant of the
// node-runtime refactor), their zero-power rows must be honest
// baselines, and the strategy sweeps must show their signature shapes.

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pow"
)

// E16, E17 and E18 must render byte-identically for any worker count:
// every sweep point owns derived seeds, so the fan-out schedule cannot
// leak into the tables.
func TestE16toE18DeterministicAcrossWorkers(t *testing.T) {
	for _, exp := range []struct {
		id  string
		run func(context.Context, Config) (*metrics.Table, error)
	}{
		{"E16", RunE16Eclipse},
		{"E17", RunE17Strategy},
		{"E18", RunE18ExecutedDoubleSpend},
	} {
		exp := exp
		t.Run(exp.id, func(t *testing.T) {
			render := func(workers int) string {
				tbl, err := exp.run(context.Background(), Config{Seed: 37, Scale: 0.05, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				if err := tbl.Render(&sb); err != nil {
					t.Fatal(err)
				}
				return sb.String()
			}
			serial := render(1)
			for _, workers := range []int{4, DefaultWorkers()} {
				if got := render(workers); got != serial {
					t.Fatalf("%s diverged at workers=%d:\n--- got ---\n%s\n--- want ---\n%s",
						exp.id, workers, got, serial)
				}
			}
		})
	}
}

// The eclipse sweep's full-capture row must show the victim behind the
// network on at least one side of the comparison, and the zero row must
// report no dropped traffic (the honest pipeline).
func TestE16EclipseShape(t *testing.T) {
	tbl, err := RunE16Eclipse(context.Background(), Config{Seed: 41, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	if len(rows) != 10 {
		t.Fatalf("E16 rows = %d, want 5 fractions x 2 systems", len(rows))
	}
	// Zero rows (first two): no link drops.
	for _, row := range rows[:2] {
		if row[0] != "0.00%" || row[8] != "0" {
			t.Fatalf("E16 zero row not honest: %v", row)
		}
	}
	// Full-capture rows (last two): traffic dropped, and at least one
	// system shows a positive lag.
	lagSeen := false
	for _, row := range rows[8:] {
		if row[0] != "100.00%" {
			t.Fatalf("E16 row order broken: %v", row)
		}
		if row[8] == "0" {
			t.Fatalf("full eclipse dropped no traffic: %v", row)
		}
		if row[4] != "0" && row[4] != "—" {
			lagSeen = true
		}
	}
	if !lagSeen {
		t.Fatalf("full eclipse produced no victim lag:\n%v\n%v", rows[8], rows[9])
	}
}

// The withholding sweep's majority row must confirm (far) less than the
// honest baseline, and the selfish-mining zero row must attribute no
// revenue to the silent adversary.
func TestE17StrategyShape(t *testing.T) {
	cfg := Config{Seed: 43, Scale: 0.2}
	tbl, err := RunE17Strategy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	alphas, withholds := len(e17Alphas(cfg.withDefaults())), len(e17Withholds(cfg.withDefaults()))
	if len(rows) != alphas+withholds {
		t.Fatalf("E17 rows = %d, want %d", len(rows), alphas+withholds)
	}
	// Chain zero row: no power, no revenue, nothing withheld.
	if rows[0][1] != "0.00%" || rows[0][3] != "0.00%" || rows[0][10] != "0" {
		t.Fatalf("selfish zero row not honest: %v", rows[0])
	}
	// Lattice rows: baseline confirms, majority withholding stalls.
	base, stalled := rows[alphas], rows[len(rows)-1]
	if base[1] != "0.00%" || base[8] == "0" {
		t.Fatalf("withholding baseline row broken: %v", base)
	}
	if stalled[8] != "0" {
		t.Fatalf("majority withholding still confirmed: %v", stalled)
	}
	if stalled[10] == "0" {
		t.Fatalf("majority withholding withheld no votes: %v", stalled)
	}
}

// The γ-parameterized selfish-mining race must bracket Eyal–Sirer's
// classic profitability thresholds on E17's own network (the acceptance
// criterion of the -selfish-gamma knob). Analytically the frontier
// (1-γ)/(3-2γ) runs from 1/3 at γ=0 through 1/4 at γ=1/2 toward 0 at
// γ=1; in simulation, a quarter-share miner — comfortably below the γ=0
// threshold — must LOSE revenue in the historical first-seen race and
// WIN it once every open race is mined on its block. Long horizons
// (~4300 blocks) keep the lottery noise far from the asserted margins;
// the runs are deterministic, so this never flakes.
func TestE17GammaBracketsClassicThresholds(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon simulations")
	}
	// Analytic frontier first: the closed form pins the classic numbers.
	if got := pow.SelfishThreshold(0); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("SelfishThreshold(0) = %v, want 1/3", got)
	}
	if got := pow.SelfishThreshold(0.5); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("SelfishThreshold(0.5) = %v, want 1/4", got)
	}
	if got := pow.SelfishThreshold(1); got != 0 {
		t.Fatalf("SelfishThreshold(1) = %v, want 0", got)
	}
	share := func(alpha, gamma float64) float64 {
		net, err := e17SelfishNet(7, alpha)
		if err != nil {
			t.Fatal(err)
		}
		net.InstallSelfishMinerGamma(e17SelfishNodes-1, gamma)
		net.Run(12 * time.Hour)
		mined, total := net.MinerShare(e17SelfishNodes - 1)
		if total == 0 {
			t.Fatal("no blocks attributed")
		}
		return float64(mined) / float64(total)
	}
	// γ = 0: the threshold sits at ~1/3. A quarter-share selfish miner
	// earns LESS than its hash share (withholding burns blocks), while a
	// 45% miner earns far more.
	if got := share(0.25, 0); got >= 0.25 {
		t.Fatalf("γ=0 α=0.25: revenue share %.4f, want < α (below the 1/3 threshold)", got)
	}
	if got := share(0.45, 0); got <= 0.45 {
		t.Fatalf("γ=0 α=0.45: revenue share %.4f, want > α (above the 1/3 threshold)", got)
	}
	// γ = 1: the threshold falls below 1/4 — the SAME quarter-share miner
	// that lost the first-seen races now profits from them.
	if got := share(0.25, 1); got <= 0.25 {
		t.Fatalf("γ=1 α=0.25: revenue share %.4f, want > α (the threshold dropped past 1/4)", got)
	}
	if got := share(0.45, 1); got <= 0.45 {
		t.Fatalf("γ=1 α=0.45: revenue share %.4f, want > α", got)
	}
}

// Config.SelfishGamma must thread into the selfish-mining rows: the γ
// cell renders it, and the analytic cell moves with it.
func TestE17GammaCellThreads(t *testing.T) {
	cfg := Config{Seed: 43, Scale: 0.05, SelfishGamma: 1}.withDefaults()
	row, err := e17Selfish(cfg, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if row[2] != "100.00%" {
		t.Fatalf("γ cell = %q, want 100.00%%", row[2])
	}
	// γ > 0 inserts the measured effective-gamma column after gamma; at
	// γ=1 every open-race honest win whose miner already held the
	// adversary's block extends it, so the cell is a percentage (or the
	// dash when no race ever opened), never empty.
	if row[3] == "" {
		t.Fatalf("effective-gamma cell missing, row = %v", row)
	}
	if want := metrics.Pct(pow.SelfishRevenue(0.35, 1)); row[5] != want {
		t.Fatalf("analytic cell = %q, want %q", row[5], want)
	}
}

// The flag-added sweep points insert in sorted position without
// disturbing the defaults, and out-of-range knobs are ignored.
func TestStrategySweepKnobs(t *testing.T) {
	c := Config{EclipseFrac: 0.4, SelfishAlpha: 0.3, WithholdWeight: 0.8}.withDefaults()
	if got := e16Fracs(c); len(got) != 6 || got[2] != 0.4 {
		t.Fatalf("eclipse sweep = %v", got)
	}
	if got := e17Alphas(c); len(got) != 6 || got[3] != 0.3 {
		t.Fatalf("alpha sweep = %v", got)
	}
	if got := e17Withholds(c); len(got) != 4 || got[3] != 0.8 {
		t.Fatalf("withhold sweep = %v", got)
	}
	// Duplicates and out-of-range values change nothing.
	c = Config{EclipseFrac: 0.5, SelfishAlpha: 1.5, WithholdWeight: -1}.withDefaults()
	if got := e16Fracs(c); len(got) != 5 {
		t.Fatalf("duplicate eclipse point added: %v", got)
	}
	// Near-duplicates dedupe too: a float within 1e-9 of a built-in point
	// (0.05+0.2 != 0.25 exactly) would render an identical table row.
	if got := e17Withholds(Config{WithholdWeight: 0.05 + 0.2}.withDefaults()); len(got) != 3 {
		t.Fatalf("near-duplicate withhold point added: %v", got)
	}
	if got := e17Alphas(c); len(got) != 5 {
		t.Fatalf("out-of-range alpha accepted: %v", got)
	}
	if got := e17Withholds(c); len(got) != 3 {
		t.Fatalf("out-of-range withhold accepted: %v", got)
	}
}
