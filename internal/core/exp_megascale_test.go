package core

// E19 acceptance properties: the scaling-law table must be a pure
// function of (Seed, Scale) — identical for any worker count — and
// every sweep row must actually carry traffic (the floored workload
// guarantees at least one settled transfer even at tiny test scales).

import (
	"context"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// assertWorkerInvariant renders one registered experiment serially and
// at wider sweep-point fan-outs: the fan-out must be invisible in the
// table, byte for byte.
func assertWorkerInvariant(t *testing.T, id string) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var serial string
	for _, workers := range []int{1, 4, DefaultWorkers()} {
		tbl, err := e.Run(context.Background(), Config{Seed: 11, Scale: 0.02, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			serial = sb.String()
		} else if got := sb.String(); got != serial {
			t.Fatalf("%s diverged at workers=%d:\n--- got ---\n%s\n--- want ---\n%s", id, workers, got, serial)
		}
	}
}

func TestE19WorkerInvariance(t *testing.T) { assertWorkerInvariant(t, "E19") }

// Every sweep point must settle traffic: a row whose throughput or
// event count is zero measures nothing (the regression this pins was a
// scaled-down workload window rounding to an empty Poisson draw).
func TestE19RowsCarryTraffic(t *testing.T) {
	tbl, err := RunE19ScalingLaw(context.Background(), Config{Seed: 11, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	cfg := Config{Scale: 0.02}.withDefaults()
	if want := len(e19Systems(cfg)) * len(e19NodeCounts(cfg)); len(rows) != want {
		t.Fatalf("E19 rows = %d, want %d", len(rows), want)
	}
	for _, row := range rows {
		if row[2] == "0.00" {
			t.Fatalf("zero-throughput sweep row: %v", row)
		}
		if row[7] == "0" {
			t.Fatalf("zero-event sweep row: %v", row)
		}
	}
}

// MegaNodes must append exactly one unscaled frontier point, and only
// when it actually extends the sweep.
func TestE19MegaNodesAppendsPoint(t *testing.T) {
	counts := e19NodeCounts(Config{Scale: 0.02, MegaNodes: 1_000_000}.withDefaults())
	if counts[len(counts)-1] != 1_000_000 {
		t.Fatalf("sweep %v missing the 10^6 frontier point", counts)
	}
	// A frontier point inside the existing sweep is dropped, not inserted.
	counts = e19NodeCounts(Config{Scale: 1, MegaNodes: 50_000}.withDefaults())
	if counts[len(counts)-1] != 100_000 {
		t.Fatalf("non-extending MegaNodes altered the sweep: %v", counts)
	}
}

// e19MegaBudgetPerNode bounds the heap high-water mark, in bytes per
// node, of the 10^6-node chain-side frontier point. The measured cost
// is 2 760 B/node (2 632 MiB of HeapSys, 107 s wall, 2.7 GB max RSS on a
// 2-vCPU box): every node is a UTXO ledger replica whose store, UTXO set
// and mempool are bitsets and id columns over the network's one block
// catalog and one transaction and coin catalog, on top of the
// struct-of-arrays network state, and HeapSys carries the GC's headroom
// over live bytes. The budget is that measurement plus a quarter, so it
// fails loudly if a layout change regresses per-node cost — at a million
// nodes, every stray KB/node is another GB of RAM.
const e19MegaBudgetPerNode = 3450

// TestE19MegaFrontier drives the chain-side sweep to the million-node
// frontier and pins the per-node memory budget. The point costs a
// minute or more of wall clock, so it only runs when DLT_MEGA=1.
func TestE19MegaFrontier(t *testing.T) {
	if os.Getenv("DLT_MEGA") == "" {
		t.Skip("set DLT_MEGA=1 to run the 10^6-node frontier point")
	}
	const nodes = 1_000_000
	cfg := Config{Seed: 11, Scale: 0.02, MegaNodes: nodes}.withDefaults()
	row, err := e19Chain(cfg, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if row[1] != metrics.I(nodes) {
		t.Fatalf("frontier row reports %s nodes, want %s", row[1], metrics.I(nodes))
	}
	if row[2] == "0.00" {
		t.Fatalf("frontier point settled no traffic: %v", row)
	}

	// HeapSys is the high-water mark of heap address space the run ever
	// asked the OS for — the number that decides whether the frontier
	// fits a machine, unlike post-GC live bytes.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	perNode := float64(ms.HeapSys) / nodes
	t.Logf("frontier row: %v", row)
	t.Logf("heap high-water: %.0f MiB total, %.0f B/node (budget %d B/node)",
		float64(ms.HeapSys)/(1<<20), perNode, e19MegaBudgetPerNode)
	if perNode > e19MegaBudgetPerNode {
		t.Fatalf("heap high-water %.0f B/node exceeds the %d B/node budget",
			perNode, e19MegaBudgetPerNode)
	}
}

// The node-count sweep must scale with cfg.Scale but never collapse
// below the minimum viable network, and must stay strictly ascending
// with duplicates dropped.
func TestE19NodeCounts(t *testing.T) {
	if got := e19NodeCounts(Config{Scale: 1}.withDefaults()); len(got) != 4 || got[0] != 100 || got[3] != 100_000 {
		t.Fatalf("full-scale sweep = %v", got)
	}
	tiny := e19NodeCounts(Config{Scale: 0.0001}.withDefaults())
	if len(tiny) == 0 {
		t.Fatalf("tiny-scale sweep collapsed to nothing")
	}
	for i, n := range tiny {
		if n < 8 {
			t.Fatalf("sweep point %d below the 8-node floor: %v", i, tiny)
		}
		if i > 0 && n <= tiny[i-1] {
			t.Fatalf("sweep not strictly ascending: %v", tiny)
		}
	}
}
