package dlt

// One benchmark per experiment (E1…E15): each regenerates its paper
// table at reduced scale, so `go test -bench=.` exercises the entire
// reproduction end to end and bench_output.txt records the cost of every
// figure. The Ablation* benchmarks quantify the design choices called
// out in DESIGN.md §4.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/lattice"
	"repro/internal/orv"
	"repro/internal/trie"
	"repro/internal/utxo"
)

// benchCfg keeps experiment benchmarks affordable; the full-scale runs
// recorded in EXPERIMENTS.md use Scale 1.
func benchCfg(seed int64) Config { return Config{Seed: seed, Scale: 0.15} }

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(context.Background(), id, benchCfg(int64(i+1)), io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkE1BlockchainAppend(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2LatticeAppend(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3Settlement(b *testing.B)       { benchExperiment(b, "E3") }
func BenchmarkE4Forks(b *testing.B)            { benchExperiment(b, "E4") }
func BenchmarkE5Confirmation(b *testing.B)     { benchExperiment(b, "E5") }
func BenchmarkE6VoteConfirm(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7LedgerGrowth(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8Pruning(b *testing.B)          { benchExperiment(b, "E8") }
func BenchmarkE9Throughput(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10BlockSize(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11OffChain(b *testing.B)        { benchExperiment(b, "E11") }
func BenchmarkE12Sharding(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13Consensus(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14Resilience(b *testing.B)      { benchExperiment(b, "E14") }
func BenchmarkE15DoubleSpend(b *testing.B)     { benchExperiment(b, "E15") }

// BenchmarkAblationForkChoice compares the two fork-choice rules on an
// identical block stream containing side branches (DESIGN.md §4: longest
// vs heaviest under competing branches).
func BenchmarkAblationForkChoice(b *testing.B) {
	mk := func(parent *chain.Block, id byte, diff float64) *chain.Block {
		p := chain.OpaquePayload{ID: hashx.Sum([]byte{id, byte(diff)}), Bytes: 64, Txs: 1}
		return &chain.Block{Header: chain.Header{
			Parent: parent.Hash(), Height: parent.Header.Height + 1,
			TxRoot: p.Root(), Difficulty: diff,
		}, Payload: p}
	}
	for _, fc := range []chain.ForkChoice{chain.LongestChain, chain.HeaviestChain} {
		fc := fc
		b.Run(fc.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				genesis := chain.NewGenesis(hashx.Zero)
				store, err := chain.NewStore(genesis, fc)
				if err != nil {
					b.Fatal(err)
				}
				prev := genesis
				for h := byte(0); h < 100; h++ {
					blk := mk(prev, h, 1)
					store.Add(blk)
					// A heavier rival forks every 10th block.
					if h%10 == 0 {
						store.Add(mk(prev, h+200, 5))
					}
					prev = blk
				}
			}
		})
	}
}

// BenchmarkAblationMempoolAssembly measures fee-ordered block assembly
// against pool size (DESIGN.md §4: fee-ordered vs FIFO under saturation —
// the sort dominates, which is the cost of a fee market).
func BenchmarkAblationMempoolAssembly(b *testing.B) {
	ring := keys.NewRing("bench-pool", 2)
	set := utxo.NewSet()
	pool := utxo.NewMempool(set)
	// Fund with many independent outputs via coinbases, one pooled
	// spend each at varying fee rates.
	for i := 0; i < 2000; i++ {
		cb := utxo.NewCoinbase(uint64(i+1), ring.Addr(0), 1000)
		if err := set.ApplyBlock(&utxo.BlockBody{Txs: []*utxo.Tx{cb}}, 1000); err != nil {
			b.Fatal(err)
		}
		op := utxo.Outpoint{TxID: cb.ID(), Index: 0}
		tx := &utxo.Tx{
			Ins:  []utxo.TxIn{{Prev: op}},
			Outs: []utxo.TxOut{{Value: 1000 - uint64(i%50) - 1, Owner: ring.Addr(1)}},
		}
		tx.SignAll(ring.Pair(0))
		if err := pool.Add(tx); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if txs, _ := pool.Assemble(200_000); len(txs) == 0 {
			b.Fatal("empty assembly")
		}
	}
}

// BenchmarkAblationTrieDelta compares measuring a full state snapshot
// with measuring only the per-block delta (DESIGN.md §4: why §V-A's
// delta pruning is cheap to account for).
func BenchmarkAblationTrieDelta(b *testing.B) {
	base := trie.Empty()
	for i := 0; i < 2000; i++ {
		key := hashx.Sum([]byte{byte(i), byte(i >> 8)})
		base = base.Put(key[:], key[:16])
	}
	next := base.Put([]byte("touched"), []byte("value"))
	b.Run("full-measure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s := next.Measure(); s.Nodes == 0 {
				b.Fatal("empty measure")
			}
		}
	})
	b.Run("delta-measure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if s := trie.DiffStats(base, next); s.Nodes == 0 {
				b.Fatal("empty delta")
			}
		}
	})
}

// BenchmarkAblationQuorumThreshold sweeps the ORV quorum fraction
// (DESIGN.md §4): higher thresholds need more votes before confirmation.
func BenchmarkAblationQuorumThreshold(b *testing.B) {
	ring := keys.NewRing("bench-quorum", 32)
	table := make(map[keys.Address]uint64, 32)
	for i := 0; i < 32; i++ {
		table[ring.Addr(i)] = 100
	}
	for _, q := range []float64{0.50, 0.67, 0.90} {
		q := q
		b.Run(metricName(q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := orv.NewWeights(table)
				tr := orv.NewTracker(w, orv.Config{QuorumFraction: q})
				block := hashx.Sum([]byte{byte(i)})
				if err := tr.StartElection(block, block); err != nil {
					b.Fatal(err)
				}
				votes := 0
				for v := 0; v < 32; v++ {
					out, err := tr.ProcessVote(block, orv.NewVote(ring.Pair(v), block, 1))
					if err != nil {
						b.Fatal(err)
					}
					votes++
					if out.Confirmed {
						break
					}
				}
				if !tr.Confirmed(block) {
					b.Fatal("never confirmed")
				}
			}
		})
	}
}

func metricName(q float64) string {
	switch {
	case q < 0.6:
		return "majority-0.50"
	case q < 0.8:
		return "nano-0.67"
	default:
		return "super-0.90"
	}
}

// BenchmarkFullComparison runs the entire registry once per iteration
// through the worker-pool runner — the headline "reproduce the whole
// paper" cost at full hardware parallelism.
func BenchmarkFullComparison(b *testing.B) {
	if testing.Short() {
		b.Skip("long benchmark")
	}
	for i := 0; i < b.N; i++ {
		if _, err := RunAll(Config{Seed: int64(i + 1), Scale: 0.1}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSpeedup compares the full E1–E15 sweep at workers=1
// against one worker per core: the measured form of the paper's §IV/§VI
// claim that independent work (DAG settlement, here whole experiments)
// need not be serialized. Compare the two sub-benchmark wall clocks in
// bench_output.txt for the speedup.
func BenchmarkParallelSpeedup(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				report, err := RunAll(Config{Seed: int64(i + 1), Scale: 0.1, Workers: workers}, workers)
				if err != nil {
					b.Fatal(err)
				}
				if got := len(report.Runs); got != 18 {
					b.Fatalf("sweep ran %d/18 experiments", got)
				}
			}
		})
	}
}

// BenchmarkLatticeProcessBatch measures batch settlement of a 256-send
// storm into a fresh lattice: hashing, signature-memo reads, work checks
// and in-order application.
func BenchmarkLatticeProcessBatch(b *testing.B) {
	ring := keys.NewRing("bench-batch", 64)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lat, _, err := lattice.New(ring.Pair(0), 1<<40, 0)
		if err != nil {
			b.Fatal(err)
		}
		blocks := make([]*lattice.Block, 0, 256)
		for j := 0; j < 256; j++ {
			send, err := lat.NewSend(ring.Pair(0), ring.Addr(1+j%63), 1)
			if err != nil {
				b.Fatal(err)
			}
			if res := lat.Process(send); res.Status != lattice.Accepted {
				b.Fatalf("seed send: %v", res.Status)
			}
			blocks = append(blocks, send)
		}
		replay, _, err := lattice.New(ring.Pair(0), 1<<40, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, res := range replay.ProcessBatch(blocks, 1) {
			if res.Status == lattice.Rejected {
				b.Fatalf("batch: %v", res.Err)
			}
		}
	}
}

// sanity: the facade compiles against the simulators.
var _ = []any{NewBitcoinNetwork, NewEthereumNetwork, NewNanoNetwork, time.Second}
