package main

// Replay unit costs: after the traced round, each layer's public entry
// point is timed alone on artifacts harvested from the finished run —
// the observer's main chain, block lattice and vertex stream, and the
// run's own event and message counts. Every replay runs on a fresh
// instance with the harvested objects copied first, so the pointer-keyed
// hash and signature memos are cold; together they are the single-node
// baseline, ledger cost with no network around it.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/account"
	"repro/internal/chain"
	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/lattice"
	"repro/internal/merkle"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/orv"
	"repro/internal/sim"
	"repro/internal/tangle"
	"repro/internal/trie"
	"repro/internal/utxo"
)

// replayCap bounds how many objects one replay touches, so the fifteen
// replays together stay within a few seconds on any workload;
// replayFloor keeps a count-sized replay (events, messages, samples)
// long enough to time when the run itself had few of them.
const (
	replayCap   = 1 << 19
	replayFloor = 1 << 16
)

type utxoHarvest struct {
	alloc  map[keys.Address]uint64
	params utxo.Params
	blocks []*chain.Block // main chain, genesis excluded, height order
}

type accountHarvest struct {
	alloc  map[keys.Address]uint64
	params account.Params
	blocks []*chain.Block
}

type latticeHarvest struct {
	ring   *keys.Ring
	reps   int
	supply uint64
	blocks []*lattice.Block // account-ordered stream, as a cold node pulls it
}

type tangleHarvest struct {
	confirmWeight int
	vertices      []*tangle.Vertex // attachment order, genesis first
}

// harvest holds what the legs of one round left behind for replay.
type harvest struct {
	utxo    *utxoHarvest
	account *accountHarvest
	lattice *latticeHarvest
	tangle  *tangleHarvest
}

// merge keeps the larger artifact of each kind across a workload's legs.
func (h *harvest) merge(o harvest) {
	if o.utxo != nil && (h.utxo == nil || txCount(o.utxo.blocks) > txCount(h.utxo.blocks)) {
		h.utxo = o.utxo
	}
	if o.account != nil && (h.account == nil || txCount(o.account.blocks) > txCount(h.account.blocks)) {
		h.account = o.account
	}
	if o.lattice != nil && (h.lattice == nil || len(o.lattice.blocks) > len(h.lattice.blocks)) {
		h.lattice = o.lattice
	}
	if o.tangle != nil && (h.tangle == nil || len(o.tangle.vertices) > len(h.tangle.vertices)) {
		h.tangle = o.tangle
	}
}

func txCount(blocks []*chain.Block) int {
	n := 0
	for _, b := range blocks {
		n += b.TxCount()
	}
	return n
}

func mainChainBlocks(s *chain.Store) []*chain.Block {
	var out []*chain.Block
	for _, h := range s.MainChain() {
		if b, ok := s.Get(h); ok && b.Header.Height > 0 {
			out = append(out, b)
		}
	}
	return out
}

func ringAlloc(r *keys.Ring, balance uint64) map[keys.Address]uint64 {
	alloc := make(map[keys.Address]uint64, r.Len())
	for i := 0; i < r.Len(); i++ {
		alloc[r.Addr(i)] = balance
	}
	return alloc
}

func harvestUTXO(n *netsim.BitcoinNet, cfg netsim.BitcoinConfig) *utxoHarvest {
	return &utxoHarvest{
		alloc:  ringAlloc(n.Ring(), cfg.InitialBalance),
		params: n.Observer().Params(),
		blocks: mainChainBlocks(n.Observer().Store()),
	}
}

func harvestAccount(n *netsim.EthereumNet, cfg netsim.EthereumConfig) *accountHarvest {
	return &accountHarvest{
		alloc:  ringAlloc(n.Ring(), cfg.InitialBalance),
		params: n.Observer().Params(),
		blocks: mainChainBlocks(n.Observer().Store()),
	}
}

func harvestLattice(n *netsim.NanoNet, cfg netsim.NanoConfig) *latticeHarvest {
	return &latticeHarvest{ring: n.Ring(), reps: cfg.Reps, supply: cfg.Supply, blocks: n.Observer().AllBlocks()}
}

func harvestTangle(n *netsim.TangleNet, cfg netsim.TangleConfig) *tangleHarvest {
	return &tangleHarvest{confirmWeight: cfg.ConfirmWeight, vertices: n.Observer().AllVertices()}
}

// coldUTXOBlocks copies blocks and their transactions so no memo of the
// run survives into the replay.
func coldUTXOBlocks(blocks []*chain.Block) []*chain.Block {
	out := make([]*chain.Block, len(blocks))
	for i, b := range blocks {
		nb := &chain.Block{Header: b.Header, Payload: b.Payload}
		if body, ok := b.Payload.(*utxo.BlockBody); ok {
			txs := make([]*utxo.Tx, len(body.Txs))
			for j, tx := range body.Txs {
				txs[j] = &utxo.Tx{Ins: tx.Ins, Outs: tx.Outs, CoinbaseHeight: tx.CoinbaseHeight}
			}
			nb.Payload = &utxo.BlockBody{Txs: txs}
		}
		out[i] = nb
	}
	return out
}

func coldBlocks(blocks []*chain.Block) []*chain.Block {
	out := make([]*chain.Block, len(blocks))
	for i, b := range blocks {
		out[i] = &chain.Block{Header: b.Header, Payload: b.Payload}
	}
	return out
}

func coldLatticeBlocks(blocks []*lattice.Block) []*lattice.Block {
	out := make([]*lattice.Block, len(blocks))
	for i, b := range blocks {
		nb := *b
		out[i] = &nb
	}
	return out
}

// replayInput is the traced round's yield: artifacts plus the counts
// that size the simulator replays.
type replayInput struct {
	harvest
	events  uint64
	msgs    int
	links   sim.UniformLinks
	samples int
	budget  int
}

func capped(n int) int {
	if n > replayCap {
		return replayCap
	}
	return n
}

// sized clamps a run's count into [replayFloor, replayCap].
func sized(n int) int {
	if n < replayFloor {
		return replayFloor
	}
	return capped(n)
}

// replayAll times every layer entry point and returns ns per operation
// by metric name. A layer the workload left no artifact for reports 0.
func replayAll(tr *tracer, in replayInput) (map[string]float64, error) {
	out := map[string]float64{}
	// A replay that cannot reproduce the run's own artifacts is a failed
	// output check, not a crash; the first one is reported.
	var failure error
	fail := func(format string, args ...any) {
		if failure == nil {
			failure = fmt.Errorf("replay: "+format, args...)
		}
	}
	// A layer the workload left no artifact for keeps its 0.
	for _, d := range metricDefs {
		if strings.HasPrefix(d.name, "replay.") {
			out[d.name] = 0
		}
	}
	// timed runs op inside its own span and records ns per unit.
	timed := func(name string, units int, op func()) {
		if units <= 0 {
			return
		}
		var d time.Duration
		tr.span(name, func() {
			t0 := time.Now()
			op()
			d = time.Since(t0)
		})
		out[name] = float64(d.Nanoseconds()) / float64(units)
	}

	// sim: the same number of events, no-op handlers.
	nEv := sized(int(in.events))
	rng := rand.New(rand.NewSource(1))
	at := make([]time.Duration, nEv)
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(time.Minute)))
	}
	timed("replay.sim.event_ns", nEv, func() {
		s := sim.New(1)
		for _, t := range at {
			s.At(t, func() {})
		}
		s.Run(0)
	})
	nMsg := sized(in.msgs)
	timed("replay.sim.send_ns", nMsg, func() {
		const nodes = 64
		s := sim.New(1)
		nw := sim.NewNetwork(s, in.links)
		for i := 0; i < nodes; i++ {
			nw.AddNode(func(sim.NodeID, any, int) {})
		}
		for i := 0; i < nMsg; i++ {
			nw.Send(sim.NodeID(i%nodes), sim.NodeID((i+1+i/nodes)%nodes), nil, 200)
		}
		s.Run(0)
	})

	// keys, hashx: fresh messages and signatures.
	const nSig = 512
	ring := keys.NewRing("replay", 16)
	msgs := make([][]byte, nSig)
	for i := range msgs {
		h := hashx.Sum([]byte{byte(i), byte(i >> 8), 0x5f})
		msgs[i] = h[:]
	}
	jobs := make([]keys.VerifyJob, nSig)
	timed("replay.keys.sign_ns", nSig, func() {
		for i, m := range msgs {
			kp := ring.Pair(i % ring.Len())
			jobs[i] = keys.VerifyJob{Pub: kp.Pub, Msg: m, Sig: kp.Sign(m)}
		}
	})
	timed("replay.keys.verify_ns", nSig, func() {
		for _, ok := range keys.VerifyBatch(jobs, 1) {
			if !ok {
				fail("fresh signature rejected")
			}
		}
	})
	const nHash = 1 << 16
	var buf [200]byte // one transfer's wire size
	timed("replay.hashx.sum_ns", nHash, func() {
		for i := 0; i < nHash; i++ {
			binary.BigEndian.PutUint32(buf[:], uint32(i))
			_ = hashx.Sum(buf[:])
		}
	})

	// merkle, trie: leaves and keys derived from the harvested history.
	leaves := replayLeaves(in.harvest)
	timed("replay.merkle.root_ns", len(leaves), func() { _ = merkle.RootOfHashes(leaves) })
	timed("replay.trie.put_ns", len(leaves), func() {
		t := trie.EmptyArena()
		for i := range leaves {
			t = t.Put(leaves[i][:keys.AddressSize], leaves[i][:])
		}
		_ = t.Root()
	})

	// chain, utxo, account: the observer's main chain onto fresh ledgers.
	var storeBlocks []*chain.Block
	var genesisOf func() *chain.Block
	if h := in.utxo; h != nil {
		storeBlocks = h.blocks
		genesisOf = func() *chain.Block { return mustUTXO(h).Genesis() }
	}
	if h := in.account; h != nil && len(h.blocks) > len(storeBlocks) {
		storeBlocks = h.blocks
		genesisOf = func() *chain.Block { return mustAccount(h).Genesis() }
	}
	if len(storeBlocks) > 0 {
		store, err := chain.NewStore(genesisOf(), chain.HeaviestChain)
		if err != nil {
			return nil, err
		}
		cold := coldBlocks(storeBlocks)
		timed("replay.chain.store-add_ns", len(cold), func() {
			for _, b := range cold {
				store.Add(b)
			}
		})
		if int(store.Height()) != len(cold) {
			fail("chain store reached height %d of %d harvested blocks", store.Height(), len(cold))
		}
	}
	if h := in.utxo; h != nil && txCount(h.blocks) > 0 {
		l := mustUTXO(h)
		cold := coldUTXOBlocks(h.blocks)
		timed("replay.utxo.process-block_ns", txCount(cold), func() {
			for _, b := range cold {
				if _, err := l.ProcessBlock(b); err != nil {
					fail("utxo block %d: %v", b.Header.Height, err)
				}
			}
		})
	}
	if h := in.account; h != nil && txCount(h.blocks) > 0 {
		l := mustAccount(h)
		cold := coldBlocks(h.blocks)
		timed("replay.account.process-block_ns", txCount(cold), func() {
			for _, b := range cold {
				if _, err := l.ProcessBlock(b); err != nil {
					fail("account block %d: %v", b.Header.Height, err)
				}
			}
		})
	}

	// lattice: the same stream serially and through the batch path.
	if h := in.lattice; h != nil && len(h.blocks) > 1 {
		fresh := func() *lattice.Lattice {
			l, _, err := lattice.New(h.ring.Pair(0), h.supply, 0)
			if err != nil {
				panic(err)
			}
			// The account-ordered stream parks receives ahead of their
			// sends; the replay measures Process, not the gap bound.
			l.SetGapLimit(len(h.blocks))
			return l
		}
		stream := h.blocks[:capped(len(h.blocks))]
		serial, cold := fresh(), coldLatticeBlocks(stream)
		timed("replay.lattice.process_ns", len(cold), func() {
			for _, b := range cold {
				serial.Process(b)
			}
		})
		batch, cold2 := fresh(), coldLatticeBlocks(stream)
		timed("replay.lattice.process-batch_ns", len(cold2), func() { batch.ProcessBatch(cold2, 1) })
		if serial.BlockCount() != batch.BlockCount() {
			fail("lattice serial path holds %d blocks, batch path %d", serial.BlockCount(), batch.BlockCount())
		}

		// orv: one election per block, every representative's vote.
		nElect := len(stream)
		if nElect > 4096 {
			nElect = 4096
		}
		weights := orv.NewWeights(serial.RepWeights())
		tracker := orv.NewTracker(weights, orv.Config{})
		type cast struct {
			root hashx.Hash
			vote *orv.Vote
		}
		var casts []cast
		for i, b := range stream[:nElect] {
			root := b.Hash()
			if err := tracker.StartElection(root, root); err != nil {
				continue
			}
			for rep := 0; rep < h.reps; rep++ {
				casts = append(casts, cast{root, orv.NewVote(h.ring.Pair(rep), root, uint64(i))})
			}
		}
		timed("replay.orv.process-vote_ns", len(casts), func() {
			for _, c := range casts {
				_, _ = tracker.ProcessVote(c.root, c.vote)
			}
		})
	}

	// tangle: the attachment-ordered stream onto a fresh DAG.
	if h := in.tangle; h != nil && len(h.vertices) > 1 {
		genesis := *h.vertices[0]
		tg, err := tangle.New(&genesis, h.confirmWeight)
		if err != nil {
			return nil, err
		}
		rest := h.vertices[1:capped(len(h.vertices))]
		cold := make([]*tangle.Vertex, len(rest))
		for i, v := range rest {
			nv := *v
			cold[i] = &nv
		}
		timed("replay.tangle.attach_ns", len(cold), func() {
			for _, v := range cold {
				tg.Attach(v)
			}
		})
		if tg.VertexCount() != len(cold)+1 {
			fail("tangle attached %d of %d harvested vertices", tg.VertexCount()-1, len(cold))
		}
	}

	// metrics: as many samples as the run's histograms absorbed.
	nSamp := sized(in.samples)
	vals := make([]float64, nSamp)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	timed("replay.metrics.add_ns", nSamp, func() {
		var hist metrics.Histogram
		hist.SetBudget(in.budget)
		for _, v := range vals {
			hist.Add(v)
		}
		_ = hist.Quantile(0.5)
	})
	return out, failure
}

func mustUTXO(h *utxoHarvest) *utxo.Ledger {
	l, err := utxo.NewLedger(h.alloc, h.params)
	if err != nil {
		panic(err)
	}
	return l
}

func mustAccount(h *accountHarvest) *account.Ledger {
	l, err := account.NewLedger(h.alloc, h.params)
	if err != nil {
		panic(err)
	}
	return l
}

// replayLeaves returns up to 4096 object hashes of the harvested
// history: transaction ids where there are chains, block and vertex
// hashes otherwise.
func replayLeaves(h harvest) []hashx.Hash {
	const max = 4096
	var out []hashx.Hash
	add := func(x hashx.Hash) bool {
		out = append(out, x)
		return len(out) < max
	}
	if h.utxo != nil {
		for _, b := range h.utxo.blocks {
			if body, ok := b.Payload.(*utxo.BlockBody); ok {
				for _, tx := range body.Txs {
					if !add(tx.ID()) {
						return out
					}
				}
			}
		}
	}
	if h.account != nil {
		for _, b := range h.account.blocks {
			if body, ok := b.Payload.(*account.BlockBody); ok {
				for _, tx := range body.Txs {
					if !add(tx.ID()) {
						return out
					}
				}
			}
		}
	}
	if h.lattice != nil {
		for _, b := range h.lattice.blocks {
			if !add(b.Hash()) {
				return out
			}
		}
	}
	if h.tangle != nil {
		for _, v := range h.tangle.vertices {
			if !add(v.Hash()) {
				return out
			}
		}
	}
	return out
}
