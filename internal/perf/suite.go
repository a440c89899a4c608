package perf

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/account"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/utxo"
	"repro/internal/workload"
)

// Benchmark is one suite member. Op performs exactly n operations and
// returns the simulated throughput its last operation achieved (0 when
// the benchmark has no simulated clock).
type Benchmark struct {
	Name string
	Kind string
	Op   func(scale float64, n int) (simTPS float64)
}

// Options parameterizes Collect.
type Options struct {
	// Baseline names the trajectory point ("007" for BENCH_007.json).
	Baseline string
	// Scale multiplies workload sizes; reports are only comparable at
	// equal scale. Default 1.
	Scale float64
	// BenchTime is the minimum measured duration per benchmark; shorter
	// runs average fewer iterations but keep the same workload (this is
	// the knob CI turns down, NOT Scale). Default 1s.
	BenchTime time.Duration
	// Progress receives one line per benchmark when non-nil.
	Progress io.Writer
}

// Suite returns the curated benchmark list, in run order. Workload
// sizes derive from fixed seeds and pin Workers to 1 (see package doc).
func Suite() []Benchmark {
	return []Benchmark{
		{Name: "sim/event-loop", Kind: "micro", Op: benchEventLoop},
		{Name: "sim/net-send", Kind: "micro", Op: benchNetSend},
		{Name: "keys/verify-batch", Kind: "micro", Op: benchVerifyBatch},
		{Name: "lattice/block-hash", Kind: "micro", Op: benchBlockHash},
		{Name: "lattice/process-batch", Kind: "micro", Op: benchProcessBatch},
		{Name: "chain/store-add", Kind: "micro", Op: benchStoreAdd},
		{Name: "netsim/nano-gossip", Kind: "micro", Op: benchNanoGossip},
		{Name: "netsim/tangle-gossip", Kind: "micro", Op: benchTangleGossip},
		{Name: "netsim/scale-gossip", Kind: "micro", Op: benchScaleGossip},
		{Name: "netsim/cold-start", Kind: "micro", Op: benchColdStart},
		{Name: "metrics/streaming-quantile", Kind: "micro", Op: benchStreamingQuantile},
		{Name: "account/submit-replicas", Kind: "micro", Op: benchSubmitReplicas},
		{Name: "utxo/new-payment", Kind: "micro", Op: benchNewPayment},
		{Name: "netsim/bitcoin-replicas", Kind: "micro", Op: benchBitcoinReplicas},
		{Name: "e2e/E1", Kind: "e2e", Op: benchExperiment("E1")},
		{Name: "e2e/E2", Kind: "e2e", Op: benchExperiment("E2")},
		{Name: "e2e/E9", Kind: "e2e", Op: benchExperiment("E9")},
		{Name: "e2e/E20", Kind: "e2e", Op: benchExperiment("E20")},
	}
}

// Collect runs the suite and assembles the report, calibration included.
func Collect(opts Options) (*Report, error) {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	if opts.BenchTime <= 0 {
		opts.BenchTime = time.Second
	}
	r := &Report{
		Schema:    SchemaVersion,
		Baseline:  opts.Baseline,
		Scale:     opts.Scale,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	cal := measure(opts.BenchTime/4, func(n int) {
		for i := 0; i < n; i++ {
			calibrationOp()
		}
	})
	r.CalibrationNsPerOp = cal.NsPerOp
	if opts.Progress != nil {
		fmt.Fprintf(opts.Progress, "calibration: %.0f ns/op\n", cal.NsPerOp)
	}
	for _, b := range Suite() {
		var tps float64
		res := measure(opts.BenchTime, func(n int) {
			tps = b.Op(opts.Scale, n)
		})
		res.SimTPS = tps
		r.Entries = append(r.Entries, Entry{
			Name: b.Name, Kind: b.Kind,
			NsPerOp: res.NsPerOp, BytesPerOp: res.BytesPerOp,
			AllocsPerOp: res.AllocsPerOp, SimTPS: res.SimTPS,
			Iters: res.Iters,
		})
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%-22s %12.0f ns/op %10.0f allocs/op (n=%d)\n",
				b.Name, res.NsPerOp, res.AllocsPerOp, res.Iters)
		}
	}
	return r, nil
}

// calibrationOp is the fixed machine-speed reference: SHA-256 over 64KB
// in 4KB strides. It exercises the same primitive the ledgers lean on
// hardest and has no allocation, scheduling or branch-predictor noise.
func calibrationOp() {
	var buf [4096]byte
	for i := 0; i < 16; i++ {
		buf[0] = byte(i)
		_ = hashx.Sum(buf[:])
	}
}

// scaled returns max(1, round(base*scale)).
func scaled(base int, scale float64) int {
	n := int(float64(base)*scale + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// benchEventLoop schedules and drains a seeded burst of timer events —
// the raw cost of the discrete-event core every simulation spins on.
func benchEventLoop(scale float64, n int) float64 {
	events := scaled(5000, scale)
	for op := 0; op < n; op++ {
		s := sim.New(1)
		rng := rand.New(rand.NewSource(7))
		// A tenth of the events are canceled, covering the cancel path.
		var cancel []sim.EventID
		for i := 0; i < events; i++ {
			id := s.At(time.Duration(rng.Intn(1000))*time.Millisecond, func() {})
			if i%10 == 0 {
				cancel = append(cancel, id)
			}
		}
		for _, id := range cancel {
			s.Cancel(id)
		}
		s.Run(0)
	}
	return 0
}

// benchNetSend pushes a seeded message burst through Network.Send with
// uniform links and no-op handlers — scheduling plus delivery dispatch,
// the per-message overhead under every gossip flood.
func benchNetSend(scale float64, n int) float64 {
	sends := scaled(4000, scale)
	const nodes = 64
	for op := 0; op < n; op++ {
		s := sim.New(1)
		net := sim.NewNetwork(s, sim.UniformLinks{
			MinLatency: 10 * time.Millisecond, MaxLatency: 100 * time.Millisecond,
		})
		for i := 0; i < nodes; i++ {
			net.AddNode(func(sim.NodeID, any, int) {})
		}
		for i := 0; i < sends; i++ {
			from := sim.NodeID(i % nodes)
			to := sim.NodeID((i + 1 + i/nodes) % nodes)
			net.Send(from, to, nil, 200)
		}
		s.Run(0)
	}
	return 0
}

// verifyJobs builds the fixed signature workload once per scale.
var verifyJobs = map[int][]keys.VerifyJob{}

func benchVerifyBatch(scale float64, n int) float64 {
	count := scaled(192, scale)
	jobs, ok := verifyJobs[count]
	if !ok {
		ring := keys.NewRing("perf-verify", 16)
		jobs = make([]keys.VerifyJob, count)
		for i := range jobs {
			kp := ring.Pair(i % ring.Len())
			msg := hashx.Sum([]byte{byte(i), byte(i >> 8), 0x5f})
			jobs[i] = keys.VerifyJob{Pub: kp.Pub, Msg: msg[:], Sig: kp.Sign(msg[:])}
		}
		verifyJobs[count] = jobs
	}
	for op := 0; op < n; op++ {
		keys.VerifyBatch(jobs, 1)
	}
	return 0
}

// benchBlockHash measures the cold lattice block hash: each operation
// copies the block (resetting any memoized digest) and hashes it.
func benchBlockHash(_ float64, n int) float64 {
	r := keys.NewRing("perf-hash", 2)
	l, _, err := lattice.New(r.Pair(0), 1<<40, 0)
	if err != nil {
		panic(err)
	}
	send, err := l.NewSend(r.Pair(0), r.Addr(1), 1)
	if err != nil {
		panic(err)
	}
	for op := 0; op < n; op++ {
		blk := *send
		_ = blk.Hash()
	}
	return 0
}

// latticeBatches caches the pre-built distribution batch per scale.
type latticeBatch struct {
	owner  *keys.KeyPair
	blocks []*lattice.Block
}

var latticeBatches = map[int]latticeBatch{}

// benchProcessBatch replays a seeded initial-distribution batch into a
// fresh lattice through ProcessBatch — signature and work checks plus
// in-order application.
func benchProcessBatch(scale float64, n int) float64 {
	accounts := scaled(40, scale)
	if accounts < 4 {
		accounts = 4
	}
	batch, ok := latticeBatches[accounts]
	if !ok {
		ring := keys.NewRing("perf-lattice", accounts)
		seed, _, err := lattice.New(ring.Pair(0), 1<<40, 0)
		if err != nil {
			panic(err)
		}
		var blocks []*lattice.Block
		share := uint64(1<<40) / uint64(accounts)
		for i := 1; i < accounts; i++ {
			send, err := seed.NewSend(ring.Pair(0), ring.Addr(i), share)
			if err != nil {
				panic(err)
			}
			seed.Process(send)
			open, err := seed.NewOpen(ring.Pair(i), send.Hash(), ring.Addr(i%4))
			if err != nil {
				panic(err)
			}
			seed.Process(open)
			blocks = append(blocks, send, open)
		}
		batch = latticeBatch{owner: ring.Pair(0), blocks: blocks}
		latticeBatches[accounts] = batch
	}
	for op := 0; op < n; op++ {
		l, _, err := lattice.New(batch.owner, 1<<40, 0)
		if err != nil {
			panic(err)
		}
		for _, res := range l.ProcessBatch(batch.blocks, 1) {
			if res.Status == lattice.Rejected {
				panic(res.Err)
			}
		}
	}
	return 0
}

// storeBlocks caches the pre-built block stream per scale: a linear
// chain with a heavier rival forking in every tenth height, so Add
// exercises extension, side-chain storage and reorgs.
var storeBlocks = map[int][]*chain.Block{}

func benchStoreAdd(scale float64, n int) float64 {
	length := scaled(240, scale)
	blocks, ok := storeBlocks[length]
	if !ok {
		genesis := chain.NewGenesis(hashx.Zero)
		mk := func(parent *chain.Block, id int, diff float64) *chain.Block {
			p := chain.OpaquePayload{ID: hashx.Sum([]byte{byte(id), byte(id >> 8), byte(diff)}), Bytes: 64, Txs: 1}
			return &chain.Block{Header: chain.Header{
				Parent: parent.Hash(), Height: parent.Header.Height + 1,
				TxRoot: p.Root(), Difficulty: diff,
			}, Payload: p}
		}
		prev := genesis
		for h := 0; h < length; h++ {
			blk := mk(prev, h, 1)
			blocks = append(blocks, blk)
			if h%10 == 0 {
				blocks = append(blocks, mk(prev, h+1<<16, 5))
			}
			prev = blk
		}
		storeBlocks[length] = blocks
	}
	for op := 0; op < n; op++ {
		store, err := chain.NewStore(chain.NewGenesis(hashx.Zero), chain.HeaviestChain)
		if err != nil {
			panic(err)
		}
		for _, b := range blocks {
			store.Add(b)
		}
	}
	return 0
}

// benchNanoGossip runs a small live block-lattice network end to end —
// block gossip with first-seen dedup, ORV votes, receives — and reports
// the settled sim-throughput. This is the per-event hot path of every
// §VI-B table.
func benchNanoGossip(scale float64, n int) float64 {
	transfers := scaled(40, scale)
	const horizon = 10 * time.Second
	var tps float64
	for op := 0; op < n; op++ {
		net, err := netsim.NewNano(netsim.NanoConfig{
			Net:      netsim.NetParams{Nodes: 8, Seed: 11},
			Accounts: 24, Reps: 4,
		})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(13))
		ps := workload.Payments(rng, workload.Config{
			Accounts: 24, Rate: float64(transfers) / horizon.Seconds(), Duration: horizon,
		})
		m := net.RunWithTransfers(horizon+2*time.Second, ps)
		tps = m.TPS
	}
	return tps
}

// benchTangleGossip runs a small live cooperative-tangle network end to
// end — vertex gossip with first-seen dedup, tip selection, the
// per-attach cumulative-coverage walk — and reports the confirmed
// sim-throughput. This is the per-event hot path of the third
// paradigm's E9/E19/E21 rows.
func benchTangleGossip(scale float64, n int) float64 {
	transfers := scaled(40, scale)
	const horizon = 10 * time.Second
	var vps float64
	for op := 0; op < n; op++ {
		net, err := netsim.NewTangle(netsim.TangleConfig{
			Net:      netsim.NetParams{Nodes: 8, Seed: 11},
			Accounts: 24,
		})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(13))
		ps := workload.Payments(rng, workload.Config{
			Accounts: 24, Rate: float64(transfers) / horizon.Seconds(), Duration: horizon,
		})
		m := net.RunWithTransfers(horizon+2*time.Second, ps)
		vps = m.VPS
	}
	return vps
}

// benchScaleGossip is benchNanoGossip at mega-scale: a 512-node ORV
// network settling a small fixed transfer schedule. Construction leans
// on the cloned setup template and the run on the struct-of-arrays
// seen-state — the two costs that used to grow with nodes × history.
func benchScaleGossip(scale float64, n int) float64 {
	nodes := scaled(512, scale)
	if nodes < 8 {
		nodes = 8
	}
	const horizon = 5 * time.Second
	var tps float64
	for op := 0; op < n; op++ {
		net, err := netsim.NewNano(netsim.NanoConfig{
			Net: netsim.NetParams{
				Nodes: nodes, PeerDegree: 4, Seed: 17,
				MinLatency: 20 * time.Millisecond, MaxLatency: 200 * time.Millisecond,
			},
			Accounts: 16, Reps: 4,
		})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(19))
		ps := workload.Payments(rng, workload.Config{
			Accounts: 16, Rate: 2, Duration: horizon,
		})
		m := net.RunWithTransfers(horizon+5*time.Second, ps)
		tps = m.TPS
	}
	return tps
}

// benchColdStart drives the sync-manager bootstrap path: an 8-node ORV
// network builds a short history while one node sits detached, then the
// cold node rejoins and range-pulls the canonical stream window by
// window. The measured cost is the pull/serve machinery plus the gap
// repair that backstops out-of-order window delivery.
func benchColdStart(scale float64, n int) float64 {
	transfers := scaled(30, scale)
	const span = 4 * time.Second
	var tps float64
	for op := 0; op < n; op++ {
		net, err := netsim.NewNano(netsim.NanoConfig{
			Net: netsim.NetParams{
				Nodes: 8, PeerDegree: 4, Seed: 23,
				MinLatency: 20 * time.Millisecond, MaxLatency: 200 * time.Millisecond,
			},
			Accounts: 16, Reps: 4,
		})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(29))
		var ps []workload.TimedPayment
		for _, p := range workload.Payments(rng, workload.Config{
			Accounts: 16, Rate: float64(transfers) / span.Seconds(), Duration: span,
		}) {
			// The cold node (7) owns accounts 7 and 15; keep them out of
			// the workload so the pulled history is complete.
			if p.From%8 != 7 && p.To%8 != 7 {
				ps = append(ps, p)
			}
		}
		net.ScheduleColdStart(7, 0, span+2*time.Second, 8)
		m := net.RunWithTransfers(span+6*time.Second, ps)
		if _, ok := net.ColdSyncDone(7); !ok {
			panic("perf: cold sync incomplete")
		}
		tps = m.TPS
	}
	return tps
}

// benchStreamingQuantile drives a budgeted histogram through its
// collapse: a seeded sample stream four times the budget is absorbed
// and the tracked quantiles read back — the per-sample cost of the
// mega-scale histograms that no longer store one float64 per node.
func benchStreamingQuantile(scale float64, n int) float64 {
	budget := scaled(4096, scale)
	samples := 4 * budget
	for op := 0; op < n; op++ {
		var st metrics.Histogram
		st.SetBudget(budget)
		rng := rand.New(rand.NewSource(31))
		for i := 0; i < samples; i++ {
			st.Add(rng.Float64() * 100)
		}
		for _, p := range []float64{0.5, 0.95, 0.99, 0.999} {
			_ = st.Quantile(p)
		}
	}
	return 0
}

// submitRing holds the funded identities of benchSubmitReplicas.
var submitRing *keys.Ring

// benchSubmitReplicas is the account chain's per-transaction path as a
// network simulation drives it: freshly signed transfers, each the same
// *account.Tx handed to eight replicas' mempools, then one block built
// on the first replica and executed by all eight. The transaction's
// signature is needed 17 times along the way; the row defends paying
// for it once.
func benchSubmitReplicas(scale float64, n int) float64 {
	const replicas, accounts = 8, 16
	txs := scaled(32, scale)
	if submitRing == nil {
		submitRing = keys.NewRing("perf-submit", accounts)
	}
	ring := submitRing
	alloc := make(map[keys.Address]uint64, accounts)
	for i := 0; i < accounts; i++ {
		alloc[ring.Addr(i)] = 1 << 40
	}
	for op := 0; op < n; op++ {
		ledgers := make([]*account.Ledger, replicas)
		for i := range ledgers {
			l, err := account.NewLedger(alloc, account.DefaultParams())
			if err != nil {
				panic(err)
			}
			ledgers[i] = l
		}
		for i := 0; i < txs; i++ {
			from := i % accounts
			to := ring.Addr((from + 1) % accounts)
			tx := &account.Tx{
				Nonce: uint64(i / accounts), To: &to, Value: 1,
				GasLimit: account.GasTxBase, GasPrice: 1,
			}
			tx.Sign(ring.Pair(from))
			for _, l := range ledgers {
				if err := l.SubmitTx(tx); err != nil {
					panic(err)
				}
			}
		}
		blk := ledgers[0].BuildBlock(ring.Addr(0), time.Second)
		for _, l := range ledgers {
			if _, err := l.ProcessBlock(blk); err != nil {
				panic(err)
			}
		}
	}
	return 0
}

// paymentWallet is benchNewPayment's fixture: one account's coins, half
// of them already claimed by pooled payments.
type paymentWallet struct {
	ledger *utxo.Ledger
	ring   *keys.Ring
}

var paymentWallets = map[int]paymentWallet{}

// benchNewPayment builds (selects coins for and signs) two payments from
// an account holding 128 equal outputs while half of them are spoken
// for in the mempool — the wallet step of every simulated Bitcoin
// submission. The first fits in one coin, the selection's early return;
// the second needs three, so it takes the full ordering. Nothing is
// pooled, so every operation sees the same set.
func benchNewPayment(scale float64, n int) float64 {
	outputs := scaled(128, scale)
	w, ok := paymentWallets[outputs]
	if !ok {
		ring := keys.NewRing("perf-wallet", 2)
		params := utxo.DefaultParams()
		params.GenesisOutputsPerAccount = outputs
		ledger, err := utxo.NewLedger(map[keys.Address]uint64{ring.Addr(0): uint64(outputs) * 1000}, params)
		if err != nil {
			panic(err)
		}
		for i := 0; i < outputs/2; i++ {
			tx, err := utxo.NewPaymentAvoiding(ledger.UTXOSet(), ledger.Pool().Spends, ring.Pair(0), ring.Addr(1), 10, 1)
			if err != nil {
				panic(err)
			}
			if err := ledger.SubmitTx(tx); err != nil {
				panic(err)
			}
		}
		w = paymentWallet{ledger: ledger, ring: ring}
		paymentWallets[outputs] = w
	}
	set, spends := w.ledger.UTXOSet(), w.ledger.Pool().Spends
	for op := 0; op < n; op++ {
		for _, amount := range [...]uint64{10, 2500} {
			if _, err := utxo.NewPaymentAvoiding(set, spends, w.ring.Pair(0), w.ring.Addr(1), amount, 1); err != nil {
				panic(err)
			}
		}
	}
	return 0
}

// benchBitcoinReplicas is the Bitcoin leg of E19's scaling point in
// small: build a 512-node network (16 accounts of 8 genesis outputs),
// submit 20 payments and run 200 simulated seconds, about five blocks.
// Construction is inside the operation, so ns, allocations and bytes per
// op are what 512 ledger replicas cost to build and to carry through a
// few blocks — the row that defends the shared block catalog, the shared
// transaction and coin catalog and the once-per-network transaction id
// and Merkle root.
func benchBitcoinReplicas(scale float64, n int) float64 {
	nodes := scaled(512, scale)
	if nodes < 8 {
		nodes = 8
	}
	const payments, span = 20, 200 * time.Second
	ledger := utxo.DefaultParams()
	ledger.RetargetWindow = 1 << 30
	ledger.GenesisOutputsPerAccount = 8
	var tps float64
	for op := 0; op < n; op++ {
		net, err := netsim.NewBitcoin(netsim.BitcoinConfig{
			Net: netsim.NetParams{
				Nodes: nodes, PeerDegree: 4, Seed: 37,
				MinLatency: 20 * time.Millisecond, MaxLatency: 200 * time.Millisecond,
			},
			Ledger: ledger, BlockInterval: 30 * time.Second, Accounts: 16, InitialBalance: 1 << 30,
		})
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(41))
		ps := workload.Payments(rng, workload.Config{
			Accounts: 16, Rate: payments / (span / 2).Seconds(), Duration: span / 2, MaxAmount: 20,
		})
		tps = net.RunWithPayments(span, ps, 2).TPS
	}
	return tps
}

// benchExperiment regenerates one registered experiment table at a
// fixed reduced core scale with Workers=1 — the end-to-end trajectory
// anchor for the paper's append (E1/E2) and throughput (E9) claims.
func benchExperiment(id string) func(float64, int) float64 {
	return func(scale float64, n int) float64 {
		e, err := core.ByID(id)
		if err != nil {
			panic(err)
		}
		cfg := core.Config{Seed: 1, Scale: 0.15 * scale, Workers: 1}
		for op := 0; op < n; op++ {
			if _, err := e.Run(context.Background(), cfg); err != nil {
				panic(fmt.Sprintf("%s: %v", id, err))
			}
		}
		return 0
	}
}
