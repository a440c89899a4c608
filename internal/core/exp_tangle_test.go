package core

// E21 acceptance properties: the tangle-confirmation table must be a
// pure function of (Seed, Scale) — identical for any worker count,
// like E19/E20 — and every sweep point must measure something: honest
// rows confirm traffic, parasite rows release their hidden sub-tangle
// and land attacker vertices.

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// The tangle rides the same deterministic simulator as the other
// paradigms.
func TestE21WorkerInvariance(t *testing.T) { assertWorkerInvariant(t, "E21") }

// Every sweep point must measure something: honest thresholds confirm,
// the parasite releases and self-certifies.
func TestE21RowsCarryData(t *testing.T) {
	tbl, err := RunE21TangleConfirmation(context.Background(), Config{Seed: 11, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	if want := len(e21Weights) + len(e21ReleaseDepths); len(rows) != want {
		t.Fatalf("E21 rows = %d, want %d", len(rows), want)
	}
	for i, row := range rows {
		if row[3] == "0" {
			t.Fatalf("row %d confirmed nothing: %v", i, row)
		}
		if i < len(e21Weights) {
			if row[0] != "honest" {
				t.Fatalf("row %d scenario = %q, want honest", i, row[0])
			}
			continue
		}
		if !strings.HasPrefix(row[0], "parasite (release at ") {
			t.Fatalf("parasite row %d never released: %v", i, row)
		}
		attacker, err := strconv.Atoi(row[8])
		if err != nil || attacker == 0 {
			t.Fatalf("parasite row %d landed no attacker vertices: %v", i, row)
		}
		depth := e21ReleaseDepths[i-len(e21Weights)]
		if withheld, err := strconv.Atoi(row[9]); err != nil || withheld < depth {
			t.Fatalf("parasite row %d withheld %s, want >= %d", i, row[9], depth)
		}
	}
}

// The honest confidence/latency tradeoff must hold: the thresholds all
// run the identical network and workload (confirmation never feeds back
// into gossip), so a higher coverage threshold never confirms more
// vertices than a lower one.
func TestE21ThresholdShape(t *testing.T) {
	tbl, err := RunE21TangleConfirmation(context.Background(), Config{Seed: 11, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	prev := -1
	for i := range e21Weights {
		confirmed, err := strconv.Atoi(rows[i][3])
		if err != nil {
			t.Fatalf("row %d confirmed cell %q not a count", i, rows[i][3])
		}
		if prev >= 0 && confirmed > prev {
			t.Fatalf("threshold %d confirmed %d > threshold %d's %d",
				e21Weights[i], confirmed, e21Weights[i-1], prev)
		}
		prev = confirmed
	}
}
