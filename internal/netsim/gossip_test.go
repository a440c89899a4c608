package netsim

// The shell's one gossip path and one publish path, checked on every
// paradigm: receive dedups, applies, pulls and relays by one rule set;
// a maker's OnProduce gates every flood; and any delivery order of the
// observer's history leaves a node with the observer's history.

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/account"
	"repro/internal/chain"
	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/lattice"
	"repro/internal/orv"
	"repro/internal/sim"
	"repro/internal/tangle"
	"repro/internal/utxo"
	"repro/internal/workload"
)

// objHash and wireSize read a gossip object's identity and modeled size.
func objHash(obj any) hashx.Hash { return obj.(interface{ Hash() hashx.Hash }).Hash() }

func wireSize(obj any) int {
	switch o := obj.(type) {
	case *chain.Block:
		return o.Size()
	case *lattice.Block:
		return o.EncodedSize()
	case *tangle.Vertex:
		return o.EncodedSize()
	}
	panic("netsim: not a gossip object")
}

// countingView counts the shell's apply calls per object.
type countingView struct {
	historyView
	applied map[any]int
}

func (v *countingView) apply(node sim.NodeID, id int32, obj any) (bool, hashx.Hash) {
	v.applied[obj]++
	return v.historyView.apply(node, id, obj)
}

// sendLog records every send its node makes and lets it through.
type sendLog struct {
	HonestBehavior
	to       []sim.NodeID
	payloads []any
}

func (l *sendLog) OnOutbound(_, to sim.NodeID, payload any, _ int) bool {
	l.to = append(l.to, to)
	l.payloads = append(l.payloads, payload)
	return true
}

// sendsOf counts logged sends of obj; pullsTo counts block requests to
// target.
func (l *sendLog) sendsOf(obj any) int {
	n := 0
	for _, p := range l.payloads {
		if p == obj {
			n++
		}
	}
	return n
}

func (l *sendLog) pullsTo(target sim.NodeID) int {
	n := 0
	for i, p := range l.payloads {
		if _, ok := p.(*blockRequest); ok && l.to[i] == target {
			n++
		}
	}
	return n
}

// chainOf reaches the chain core behind a registry-built chain network.
func chainOf(net ParadigmNet) *chainRuntime {
	switch p := net.(type) {
	case bitcoinParadigm:
		return p.chainRuntime
	case ethereumParadigm:
		return p.chainRuntime
	}
	return nil
}

// chainBlock builds a block on node 1's tip that node 0 can attach.
func chainBlock(net ParadigmNet) *chain.Block {
	blk := chainOf(net).nodes[1].BuildBlock(keys.DeterministicN("contract-miner", 1).Address(), net.Sim().Now())
	blk.Header.Difficulty = 1
	return blk
}

// gossipCase is one paradigm's side of the contract: a valid object node
// 0 can attach, the same kind of object carrying a forged signature, and
// the verdicts the paradigm gives.
type gossipCase struct {
	name   string
	valid  func(t *testing.T, net ParadigmNet) any
	forged func(t *testing.T, net ParadigmNet) any
	// forgedRelays: the chains relay a block whatever its processing
	// verdict; the DAGs drop a rejected object.
	forgedRelays bool
	// pulls: a parked child asks its sender for the missing parent.
	pulls bool
}

var gossipCases = []gossipCase{
	{
		name:  "bitcoin",
		valid: func(_ *testing.T, net ParadigmNet) any { return chainBlock(net) },
		forged: func(t *testing.T, net ParadigmNet) any {
			bn := net.(bitcoinParadigm).BitcoinNet
			tx, err := utxo.NewPayment(bn.ledgers[1].UTXOSet(), bn.ring.Pair(3), bn.ring.Addr(4), 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := bn.ledgers[1].SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
			blk := chainBlock(net)
			body := blk.Payload.(*utxo.BlockBody)
			forged := &utxo.Tx{Ins: slices.Clone(tx.Ins), Outs: tx.Outs}
			forged.Ins[0].Sig = forgeSig(forged.Ins[0].Sig)
			return &chain.Block{Header: blk.Header, Payload: &utxo.BlockBody{Txs: []*utxo.Tx{body.Txs[0], forged}}}
		},
		forgedRelays: true,
	},
	{
		name:  "ethereum",
		valid: func(_ *testing.T, net ParadigmNet) any { return chainBlock(net) },
		forged: func(t *testing.T, net ParadigmNet) any {
			en := net.(ethereumParadigm).EthereumNet
			to := en.ring.Addr(4)
			tx := &account.Tx{To: &to, Value: 1, GasLimit: account.GasTxBase, GasPrice: 1}
			tx.Sign(en.ring.Pair(3))
			if err := en.ledgers[1].SubmitTx(tx); err != nil {
				t.Fatal(err)
			}
			blk := chainBlock(net)
			body := blk.Payload.(*account.BlockBody)
			forged := *tx
			forged.Sig = forgeSig(tx.Sig)
			return &chain.Block{Header: blk.Header, Payload: &account.BlockBody{
				Txs: []*account.Tx{&forged}, Receipts: body.Receipts, GasLimit: body.GasLimit, GasUsed: body.GasUsed,
			}}
		},
		forgedRelays: true,
	},
	{
		name: "nano",
		valid: func(t *testing.T, net ParadigmNet) any {
			nn := net.(nanoParadigm).NanoNet
			// Account 5 keeps clear of account 1, whose chain the
			// orphans below grow.
			b, err := nn.nodes[1].lat.Clone().NewSend(nn.ring.Pair(5), nn.ring.Addr(6), 1)
			if err != nil {
				t.Fatal(err)
			}
			return b
		},
		forged: func(t *testing.T, net ParadigmNet) any {
			nn := net.(nanoParadigm).NanoNet
			b, err := nn.nodes[1].lat.Clone().NewSend(nn.ring.Pair(6), nn.ring.Addr(7), 1)
			if err != nil {
				t.Fatal(err)
			}
			return b.WithSig(forgeSig(b.Sig()))
		},
		pulls: true,
	},
	{
		name: "tangle",
		valid: func(_ *testing.T, net ParadigmNet) any {
			tn := net.(tangleParadigm).TangleNet
			g := tn.Observer().VertexAt(0).Hash()
			return tangle.NewVertex(tn.ring.Pair(0), 1, g, g, tn.ring.Addr(2), 1)
		},
		forged: func(_ *testing.T, net ParadigmNet) any {
			tn := net.(tangleParadigm).TangleNet
			g := tn.Observer().VertexAt(0).Hash()
			v := tangle.NewVertex(tn.ring.Pair(0), 2, g, g, tn.ring.Addr(3), 1)
			return v.WithSig(forgeSig(v.Sig()))
		},
		pulls: true,
	},
}

// orphansFor returns the backlog test's parentless-object factory for a
// paradigm.
func orphansFor(t *testing.T, name string) func(*testing.T, ParadigmNet, int) []any {
	for _, c := range backlogCases {
		if c.name == name {
			return c.orphans
		}
	}
	t.Fatalf("no backlog case for %s", name)
	return nil
}

// Every paradigm's gossip runs through the shell's one receive path, so
// every paradigm obeys one contract at node 0 receiving from node 1:
// a repeat delivery is neither applied nor relayed again, nor does it
// allocate; a forged
// object never attaches (and only the chains relay it); a child that
// arrives before its parent asks the sender for the parent on the DAGs
// and parks silently on the chains; and an object evicted from the
// backlog is applied again when it is re-delivered.
func TestShellGossipContract(t *testing.T) {
	np := NetParams{
		Nodes: 4, PeerDegree: 2, Seed: 601, BacklogCap: 1,
		MinLatency: 5 * time.Millisecond, MaxLatency: 20 * time.Millisecond,
	}
	for _, c := range gossipCases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := ParadigmByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			net, err := spec.Build(np, BuildOptions{Accounts: 8})
			if err != nil {
				t.Fatal(err)
			}
			sh := shellOf(t, net)
			view := &countingView{historyView: sh.view, applied: map[any]int{}}
			sh.view = view
			log := &sendLog{}
			net.Runtime().SetBehavior(0, log)
			peers := len(net.Net().Peers(0))
			deliver := func(obj any) { sh.receive(0, 1, sh.objectID(obj.(object)), obj, wireSize(obj)) }

			valid := c.valid(t, net)
			deliver(valid)
			deliver(valid)
			if !sh.view.has(0, objHash(valid)) {
				t.Fatal("a valid object did not attach")
			}
			if got := view.applied[valid]; got != 1 {
				t.Fatalf("a valid object delivered twice was applied %d times", got)
			}
			if got := log.sendsOf(valid); got != peers {
				t.Fatalf("a valid object delivered twice was sent %d times to %d peers", got, peers)
			}
			if allocs := testing.AllocsPerRun(20, func() { deliver(valid) }); allocs != 0 {
				t.Fatalf("a repeat delivery allocated %.1f times", allocs)
			}

			forged := c.forged(t, net)
			deliver(forged)
			if sh.view.has(0, objHash(forged)) {
				t.Fatal("a forged object attached")
			}
			want := 0
			if c.forgedRelays {
				want = peers
			}
			if got := log.sendsOf(forged); got != want {
				t.Fatalf("a forged object was sent %d times, want %d", got, want)
			}

			sh.sync.arm()
			orphans := orphansFor(t, c.name)(t, net, 2)
			deliver(orphans[0])
			want = 0
			if c.pulls {
				want = 1
			}
			if got := log.pullsTo(1); got != want {
				t.Fatalf("a parked child sent %d block requests to its sender, want %d", got, want)
			}

			// BacklogCap is 1: the second orphan evicts the first, whose
			// re-delivery must reach apply again.
			deliver(orphans[1])
			deliver(orphans[0])
			if got := view.applied[orphans[0]]; got != 2 {
				t.Fatalf("an evicted object was applied %d times over two deliveries, want 2", got)
			}
		})
	}
}

// withholdAll keeps every object its node makes off the network.
type withholdAll struct{ HonestBehavior }

func (withholdAll) OnProduce(sim.NodeID, any) bool { return false }

// Nano's publish asks the maker's behavior, as the chains and the tangle
// do: a node whose OnProduce refuses keeps its blocks to itself, and the
// runtime counts each one withheld.
func TestNanoHonorsOnProduce(t *testing.T) {
	const k = 2
	cfg := NanoConfig{
		Net: NetParams{
			Nodes: 6, PeerDegree: 3, Seed: 611,
			MinLatency: 5 * time.Millisecond, MaxLatency: 20 * time.Millisecond,
		},
		Accounts: 12,
		Reps:     4,
	}
	net, err := NewNano(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net.Runtime().SetBehavior(k, withholdAll{})
	net.RunWithTransfers(20*time.Second, workload.Payments(rand.New(rand.NewSource(612)), workload.Config{
		Accounts: 12, Rate: 6, Duration: 10 * time.Second, MinAmount: 1, MaxAmount: 5,
	}))

	sends, private := 0, 0
	for _, b := range net.nodes[k].lat.AllBlocks() {
		elsewhere := false
		for i, node := range net.nodes {
			if _, ok := node.lat.Get(b.Hash()); ok && i != k {
				elsewhere = true
			}
		}
		if !elsewhere {
			private++
		}
		// Setup sends all come from account 0, owned by node 0.
		if b.Type == lattice.Send && net.ownerOf(net.ring.Index(b.Account)) == k {
			sends++
			if elsewhere {
				t.Fatalf("node %d withholds its blocks, but its send %x reached another node", k, b.Hash())
			}
		}
	}
	if sends == 0 {
		t.Fatal("node k made no sends; the test lost its teeth")
	}
	if got := net.Runtime().Stats().BlocksWithheld; got != private {
		t.Fatalf("BlocksWithheld = %d, but node k holds %d blocks no other node has", got, private)
	}
}

// deliveryCase builds one paradigm's network with node k detached from
// t=0, runs a short workload that never involves k's accounts, and names
// k's backlog size.
type deliveryCase struct {
	name  string
	build func(t *testing.T) (sh *netShell, backlog func() int)
}

// deliveryK is the detached node of FuzzDeliveryOrder's networks.
const deliveryK = 3

func deliveryNet() NetParams {
	return NetParams{
		Nodes: 4, PeerDegree: 2, Seed: 621, BacklogCap: 1 << 16,
		MinLatency: 5 * time.Millisecond, MaxLatency: 20 * time.Millisecond,
	}
}

// awayFromK is a short payment stream that neither sends from nor pays
// to an account node k owns.
func awayFromK(accounts int) []workload.TimedPayment {
	var out []workload.TimedPayment
	for _, p := range workload.Payments(rand.New(rand.NewSource(622)), workload.Config{
		Accounts: accounts, Rate: 12, Duration: 3 * time.Second, MinAmount: 1, MaxAmount: 3,
	}) {
		if p.From%deliveryNet().Nodes != deliveryK && p.To%deliveryNet().Nodes != deliveryK {
			out = append(out, p)
		}
	}
	return out
}

var deliveryCases = []deliveryCase{
	{"bitcoin", func(t *testing.T) (*netShell, func() int) {
		net, err := NewBitcoin(BitcoinConfig{
			Net: deliveryNet(), HashRates: []float64{1, 1, 1, 0},
			BlockInterval: 2 * time.Second, Accounts: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Net().Detach(deliveryK)
		net.RunWithPayments(20*time.Second, awayFromK(8), 1)
		return &net.netShell, func() int { return net.ledgers[deliveryK].Store().OrphanPoolSize() }
	}},
	{"nano", func(t *testing.T) (*netShell, func() int) {
		net, err := NewNano(NanoConfig{Net: deliveryNet(), Accounts: 8, Reps: 4})
		if err != nil {
			t.Fatal(err)
		}
		net.Net().Detach(deliveryK)
		net.RunWithTransfers(5*time.Second, awayFromK(8))
		node := net.nodes[deliveryK]
		return &net.netShell, func() int { return node.lat.GapCount() }
	}},
	{"tangle", func(t *testing.T) (*netShell, func() int) {
		net, err := NewTangle(TangleConfig{Net: deliveryNet(), Accounts: 8})
		if err != nil {
			t.Fatal(err)
		}
		net.Net().Detach(deliveryK)
		net.RunWithTransfers(5*time.Second, awayFromK(8))
		return &net.netShell, func() int { return net.nodes[deliveryK].tg.ParkedCount() }
	}},
}

// deliveryOrder turns fuzz bytes into a delivery sequence over n stream
// positions: two bytes per Fisher–Yates draw shuffle the stream, and
// every four bytes left over splice in one duplicate (two bytes choose
// the object, two the position).
func deliveryOrder(data []byte, n int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	next := func() int {
		v := int(data[0])<<8 | int(data[1])
		data = data[2:]
		return v
	}
	for i := n - 1; i > 0 && len(data) >= 2; i-- {
		j := next() % (i + 1)
		seq[i], seq[j] = seq[j], seq[i]
	}
	for len(data) >= 4 {
		dup := seq[next()%len(seq)]
		seq = slices.Insert(seq, next()%(len(seq)+1), dup)
	}
	return seq
}

// deliverySeeds are the delivery-order fuzzers' shared seeds: stream
// order, a few swaps and a duplicate, and 256 draws of 0.
func deliverySeeds() [][]byte {
	rotated := make([]byte, 512)
	return [][]byte{{}, {0xff, 0xff, 0, 0, 0x80, 0x01, 0, 3, 0, 1, 0, 7}, rotated}
}

// Any delivery order of the observer's canonical stream, duplicates
// included, leaves a node that missed the whole run holding every
// object of it, with a canonical stream as long as the observer's and
// nothing left parked.
func FuzzDeliveryOrder(f *testing.F) {
	for _, seed := range deliverySeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range deliveryCases {
			sh, backlog := c.build(t)
			n, at := sh.view.canonical(0)
			if missed, _ := sh.view.canonical(deliveryK); missed >= n {
				t.Fatalf("%s: node %d holds %d of the observer's %d objects before any delivery", c.name, deliveryK, missed, n)
			}
			for _, i := range deliveryOrder(data, n) {
				obj, size := at(i)
				sh.receive(deliveryK, 0, sh.objectID(obj.(object)), obj, size)
			}
			for i := 0; i < n; i++ {
				if obj, _ := at(i); !sh.view.has(deliveryK, objHash(obj)) {
					t.Fatalf("%s: node %d lacks stream object %d of %d", c.name, deliveryK, i, n)
				}
			}
			if got, _ := sh.view.canonical(deliveryK); got != n {
				t.Fatalf("%s: node %d's canonical stream holds %d objects, the observer's %d", c.name, deliveryK, got, n)
			}
			if got := backlog(); got != 0 {
				t.Fatalf("%s: node %d still parks %d objects", c.name, deliveryK, got)
			}
		}
	})
}

// orderBytes encodes a permutation of 0..len(want)-1 as deliveryOrder
// input: each Fisher–Yates draw picks the position want's next element
// currently sits at.
func orderBytes(want []int) []byte {
	seq := make([]int, len(want))
	for i := range seq {
		seq[i] = i
	}
	var data []byte
	for i := len(seq) - 1; i > 0; i-- {
		j := slices.Index(seq[:i+1], want[i])
		seq[i], seq[j] = seq[j], seq[i]
		data = append(data, byte(j>>8), byte(j))
	}
	return data
}

// Any delivery order of six send/receive pairs and every representative's
// vote on each block, duplicates included, leaves a node that saw none of
// them with every block confirmed, no vote parked and no gap: a vote that
// arrives before its block waits in the pending buffer and is replayed
// when the block's election opens.
func FuzzVoteOrder(f *testing.F) {
	const reps, pairs = 4, 6
	const nBlocks, nItems = 2 * pairs, 2 * pairs * (reps + 1)
	for _, seed := range deliverySeeds() {
		f.Add(seed)
	}
	// Every vote before its block: the stream holds the blocks first.
	votesFirst := make([]int, 0, nItems)
	for i := nBlocks; i < nItems; i++ {
		votesFirst = append(votesFirst, i)
	}
	for i := 0; i < nBlocks; i++ {
		votesFirst = append(votesFirst, i)
	}
	f.Add(orderBytes(votesFirst))
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := NewNano(NanoConfig{Net: deliveryNet(), Accounts: 8, Reps: reps})
		if err != nil {
			t.Fatal(err)
		}
		ring := net.Ring()
		lat := net.nodes[0].lat.Clone()
		var blocks []*lattice.Block
		mint := func(b *lattice.Block, err error) hashx.Hash {
			if err != nil {
				t.Fatal(err)
			}
			if res := lat.Process(b); res.Status != lattice.Accepted {
				t.Fatalf("minting: %v", res.Status)
			}
			blocks = append(blocks, b)
			return b.Hash()
		}
		for _, p := range [pairs][2]int{{1, 2}, {2, 5}, {5, 1}, {3, 6}, {6, 7}, {7, 3}} {
			send := mint(lat.NewSend(ring.Pair(p[0]), ring.Addr(p[1]), 1000))
			mint(lat.NewReceive(ring.Pair(p[1]), send))
		}
		// The stream: every block, then each rep's seq-1 vote on each.
		stream := make([]any, 0, nItems)
		for _, b := range blocks {
			stream = append(stream, b)
		}
		for _, b := range blocks {
			for rep := 0; rep < reps; rep++ {
				stream = append(stream, orv.NewVote(ring.Pair(rep), b.Hash(), 1))
			}
		}
		node := net.nodes[deliveryK]
		for _, i := range deliveryOrder(data, len(stream)) {
			switch obj := stream[i].(type) {
			case *lattice.Block:
				net.receive(node.id, 0, net.objectID(obj), obj, obj.EncodedSize())
			case *orv.Vote:
				net.onVote(node, obj)
			}
		}
		for i, b := range blocks {
			if !node.tracker.Confirmed(b.Hash()) {
				t.Fatalf("node %d did not confirm block %d of %d", deliveryK, i, len(blocks))
			}
		}
		if got := node.pendingVotes.Len(); got != 0 {
			t.Fatalf("node %d still parks %d votes", deliveryK, got)
		}
		if got := node.lat.GapCount(); got != 0 {
			t.Fatalf("node %d still holds %d gapped blocks", deliveryK, got)
		}
	})
}
