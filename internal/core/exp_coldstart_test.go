package core

// E20 acceptance properties: the cold-start table must be a pure
// function of (Seed, Scale) — identical for any worker count — and
// every sweep point must actually complete its catch-up and pull bytes
// (an "incomplete" row measures nothing).

import (
	"context"
	"testing"
)

// The sync manager's pulls ride the same deterministic simulator as the
// gossip they recover.
func TestE20WorkerInvariance(t *testing.T) { assertWorkerInvariant(t, "E20") }

// Every point must finish its bootstrap within the horizon and pull a
// growing history: catch-up complete, bytes pulled, range pulls issued.
func TestE20RowsCarryData(t *testing.T) {
	tbl, err := RunE20ColdStart(context.Background(), Config{Seed: 11, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	cfg := Config{Scale: 0.02}.withDefaults()
	if want := len(e20Systems(cfg)) * len(e20Factors); len(rows) != want {
		t.Fatalf("E20 rows = %d, want %d", len(rows), want)
	}
	for _, row := range rows {
		if row[4] == "incomplete" {
			t.Fatalf("cold sync never completed: %v", row)
		}
		if row[5] == "0 B" {
			t.Fatalf("zero bytes pulled: %v", row)
		}
		if row[6] == "0" {
			t.Fatalf("no range pulls issued: %v", row)
		}
		if row[2] == "0" {
			t.Fatalf("empty history — the point bootstrapped nothing: %v", row)
		}
	}
}

// The sync knobs must actually reach the networks: a smaller pull batch
// means strictly more range windows for the same history.
func TestE20PullBatchKnob(t *testing.T) {
	cfg := Config{Seed: 11, Scale: 0.02}
	wide, err := RunE20ColdStart(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	narrowCfg := cfg
	narrowCfg.SyncPullBatch = 2
	narrow, err := RunE20ColdStart(context.Background(), narrowCfg)
	if err != nil {
		t.Fatal(err)
	}
	morePulls := false
	for i, row := range narrow.Rows() {
		if row[6] > wide.Rows()[i][6] || len(row[6]) > len(wide.Rows()[i][6]) {
			morePulls = true
		}
	}
	if !morePulls {
		t.Fatal("SyncPullBatch=2 issued no more range pulls than the default window")
	}
}
