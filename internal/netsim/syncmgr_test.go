package netsim

// Tests for the sync manager: a pull re-targets off a detached sender
// and re-arms after its attempt budget is spent, every paradigm's
// bounded backlog holds under a parentless flood and under its age
// bound, and the cold-start range-pull bootstrap catches up on both
// paradigms.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/hashx"
	"repro/internal/lattice"
	"repro/internal/sim"
	"repro/internal/tangle"
	"repro/internal/workload"
)

// syncGapCfg is a tiny 4-node lattice network for gap-repair scenarios.
func syncGapCfg(seed int64) NanoConfig {
	return NanoConfig{
		Net: NetParams{
			Nodes: 4, PeerDegree: 2, Seed: seed,
			MinLatency: 5 * time.Millisecond, MaxLatency: 20 * time.Millisecond,
		},
		Accounts: 8,
		Reps:     2,
	}
}

// isolateRelays pins every node's relay view so crafted blocks cannot
// leak to the victim (node 0) by gossip: recovery must come from the
// sync manager's pulls, not from a lucky flood.
func isolateRelays(n *NanoNet) {
	n.rt.net.SetPeersOf(0, []sim.NodeID{2})
	n.rt.net.SetPeersOf(1, []sim.NodeID{2})
	n.rt.net.SetPeersOf(2, []sim.NodeID{3})
	n.rt.net.SetPeersOf(3, []sim.NodeID{2})
}

// craftChain builds two chained sends on the given lattice (processing
// them locally, never publishing) and returns them oldest-first.
func craftChain(t *testing.T, n *NanoNet, lat *lattice.Lattice) (b1, b2 *lattice.Block) {
	t.Helper()
	b1, err := lat.NewSend(n.ring.Pair(1), n.ring.Addr(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := lat.Process(b1); res.Status != lattice.Accepted {
		t.Fatalf("craft b1: %v", res.Status)
	}
	b2, err = lat.NewSend(n.ring.Pair(1), n.ring.Addr(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res := lat.Process(b2); res.Status != lattice.Accepted {
		t.Fatalf("craft b2: %v", res.Status)
	}
	return b1, b2
}

// deliverBlock hands node to a lattice block from node from through the
// shell's gossip path.
func deliverBlock(n *NanoNet, to, from int, b *lattice.Block) {
	n.receive(n.nodes[to].id, n.nodes[from].id, n.objectID(b), b, b.EncodedSize())
}

// runDeadTargetScenario: node 1 crafts two chained blocks, node 0
// receives only the child from node 1, and node 1 churns out before the
// pull chain can be served — while live nodes 2 and 3 hold the missing
// parent the whole time. The pull's only hope is re-targeting off the
// dead sender.
func runDeadTargetScenario(t *testing.T) *NanoNet {
	t.Helper()
	net, err := NewNano(syncGapCfg(501))
	if err != nil {
		t.Fatal(err)
	}
	isolateRelays(net)
	b1, b2 := craftChain(t, net, net.nodes[1].lat)
	// Live nodes 2 and 3 hold the parent; node 0 never sees it by relay.
	deliverBlock(net, 2, 1, b1)
	deliverBlock(net, 3, 2, b1)

	// The churn schedule arms the sync manager and kills the sender.
	fs := FaultSchedule{Churn: []ChurnWindow{{Node: 1, LeaveAt: 100 * time.Millisecond}}}
	fs.ApplyToNano(net)
	net.rt.sim.At(200*time.Millisecond, func() {
		deliverBlock(net, 0, 1, b2)
	})
	net.Run(15 * time.Second)

	if _, ok := net.nodes[2].lat.Get(b1.Hash()); !ok {
		t.Fatal("scenario setup broken: node 2 does not hold the parent")
	}
	return net
}

// The pull re-targets to a live peer and the gap drains.
func TestSyncPullRetargetsOffDetachedSender(t *testing.T) {
	net := runDeadTargetScenario(t)
	if got := net.nodes[0].lat.GapCount(); got != 0 {
		t.Fatalf("victim still has %d gaps; re-target never recovered the parent", got)
	}
	if st := net.SyncStats(); st.Retargets == 0 {
		t.Fatalf("gap drained without a re-target (stats %+v) — scenario lost its teeth", st)
	}
}

// runExhaustionScenario: the pull target is alive but does not hold the
// missing parent, so all maxGapRepairAttempts requests go unserved
// (~9.6 s). The parent only becomes available on live nodes afterwards —
// recovery requires the exhausted pull to re-arm instead of abandoning
// the gap forever.
func runExhaustionScenario(t *testing.T) *NanoNet {
	t.Helper()
	net, err := NewNano(syncGapCfg(511))
	if err != nil {
		t.Fatal(err)
	}
	isolateRelays(net)
	// Craft on a detached clone: no live node holds b1 or b2 yet.
	donor := net.nodes[1].lat.Clone()
	b1, b2 := craftChain(t, net, donor)

	net.sync.arm()
	net.rt.sim.At(200*time.Millisecond, func() {
		deliverBlock(net, 0, 1, b2)
	})
	// Long after the 64-attempt budget is spent, the parent surfaces on
	// every live node except the victim (relay isolation keeps it away).
	net.rt.sim.At(12*time.Second, func() {
		deliverBlock(net, 1, 3, b1)
		deliverBlock(net, 2, 3, b1)
		deliverBlock(net, 3, 2, b1)
	})
	net.Run(25 * time.Second)
	return net
}

// The exhausted pull re-arms with capped backoff against a rotated
// target and eventually drains the gap.
func TestSyncPullRearmsAfterExhaustion(t *testing.T) {
	net := runExhaustionScenario(t)
	if got := net.nodes[0].lat.GapCount(); got != 0 {
		t.Fatalf("victim still has %d gaps; exhausted pull never re-armed", got)
	}
	st := net.SyncStats()
	if st.Rearms == 0 {
		t.Fatalf("gap drained without a re-arm (stats %+v) — scenario lost its teeth", st)
	}
}

// backlogCase builds one paradigm's network through the registry and
// names its victim's (node 0's) backlog buffer and a stream of objects
// whose dependency never arrives, so each one parks.
type backlogCase struct {
	name string
	// buffer reports the victim's parked count and eviction count.
	buffer func(ParadigmNet) (parked, evicted int)
	// orphans returns n objects that park at the victim, oldest first.
	orphans func(t *testing.T, net ParadigmNet, n int) []any
}

// parentlessBlocks makes chain blocks whose parents no node ever sees.
func parentlessBlocks(_ *testing.T, _ ParadigmNet, n int) []any {
	out := make([]any, n)
	for i := range out {
		parent := hashx.Sum([]byte{'p', byte(i), byte(i >> 8)})
		out[i] = &chain.Block{Header: chain.Header{Parent: parent, Height: uint64(i + 1)}, Payload: chain.OpaquePayload{ID: parent}}
	}
	return out
}

func chainBacklog(s *chain.Store) (int, int) { return s.OrphanPoolSize(), s.Orphans().Evicted() }

var backlogCases = []backlogCase{
	{
		name:    "bitcoin",
		buffer:  func(n ParadigmNet) (int, int) { return chainBacklog(n.(bitcoinParadigm).Observer().Store()) },
		orphans: parentlessBlocks,
	},
	{
		name:    "ethereum",
		buffer:  func(n ParadigmNet) (int, int) { return chainBacklog(n.(ethereumParadigm).Observer().Store()) },
		orphans: parentlessBlocks,
	},
	{
		name: "nano",
		buffer: func(n ParadigmNet) (int, int) {
			l := n.(nanoParadigm).Observer()
			return l.GapCount(), l.Gaps().Evicted()
		},
		// A chain crafted on a detached clone, delivered without its root:
		// every block waits on its predecessor.
		orphans: func(t *testing.T, net ParadigmNet, n int) []any {
			nn := net.(nanoParadigm).NanoNet
			donor := nn.nodes[1].lat.Clone()
			out := make([]any, 0, n)
			for i := 0; i <= n; i++ {
				b, err := donor.NewSend(nn.ring.Pair(1), nn.ring.Addr(2+i%3), 1)
				if err != nil {
					t.Fatal(err)
				}
				if res := donor.Process(b); res.Status != lattice.Accepted {
					t.Fatalf("craft block %d: %v", i, res.Status)
				}
				if i > 0 {
					out = append(out, b)
				}
			}
			return out
		},
	},
	{
		name: "tangle",
		buffer: func(n ParadigmNet) (int, int) {
			tg := n.(tangleParadigm).Observer()
			return tg.ParkedCount(), tg.Parked().Evicted()
		},
		orphans: func(_ *testing.T, net ParadigmNet, n int) []any {
			tn := net.(tangleParadigm).TangleNet
			out := make([]any, n)
			for i := range out {
				missing := hashx.Sum([]byte{'v', byte(i), byte(i >> 8)})
				out[i] = tangle.NewVertex(tn.ring.Pair(1), uint64(i+1), missing, missing, tn.ring.Addr(2), 1)
			}
			return out
		},
	},
}

// buildVictim builds the case's 4-node network with node 0 cut off from
// relaying, so everything it parks arrives by deliver alone.
func buildVictim(t *testing.T, c backlogCase, np NetParams) ParadigmNet {
	t.Helper()
	spec, err := ParadigmByName(c.name)
	if err != nil {
		t.Fatal(err)
	}
	np.Nodes, np.PeerDegree, np.Seed = 4, 2, 521
	np.MinLatency, np.MaxLatency = 5*time.Millisecond, 20*time.Millisecond
	net, err := spec.Build(np, BuildOptions{Accounts: 8})
	if err != nil {
		t.Fatal(err)
	}
	net.Net().SetPeersOf(0, nil)
	return net
}

// deliver hands one object from node 1 to node 0 and lets it land.
func deliver(net ParadigmNet, obj any) {
	net.Runtime().Unicast(1, 0, obj, 100)
	net.Sim().RunUntil(net.Sim().Now() + 100*time.Millisecond)
}

// A flood of objects whose dependency never arrives must not grow any
// paradigm's backlog past BacklogCap; evictions surface in SyncStats, and
// an evicted object's dedup bit is cleared, so a re-delivery parks it
// again instead of vanishing.
func TestBacklogFloodBounded(t *testing.T) {
	const limit = 8
	for _, c := range backlogCases {
		t.Run(c.name, func(t *testing.T) {
			net := buildVictim(t, c, NetParams{BacklogCap: limit})
			flood := c.orphans(t, net, 3*limit)
			for _, obj := range flood {
				deliver(net, obj)
			}
			parked, evicted := c.buffer(net)
			if parked > limit {
				t.Fatalf("buffer holds %d objects, cap %d", parked, limit)
			}
			if evicted != len(flood)-limit {
				t.Fatalf("evicted %d of %d objects, want %d", evicted, len(flood), len(flood)-limit)
			}
			if got := net.SyncStats().BacklogEvicted; got != evicted {
				t.Fatalf("SyncStats().BacklogEvicted = %d, buffer evicted %d", got, evicted)
			}
			// The oldest object went first; re-delivered, it parks again
			// and pushes out the next oldest.
			deliver(net, flood[0])
			if p, e := c.buffer(net); e != evicted+1 || p > limit {
				t.Fatalf("re-delivered evicted object did not re-park (parked %d, evictions %d -> %d); dedup bit still set", p, evicted, e)
			}
		})
	}
}

// BacklogTTL ages parked objects out on every paradigm — the tangle
// included, whose seam build used to drop it: an object older than the
// TTL is evicted by the next arrival while the buffer is far under cap.
func TestBacklogTTLEvicts(t *testing.T) {
	const ttl = 5 * time.Second
	for _, c := range backlogCases {
		t.Run(c.name, func(t *testing.T) {
			net := buildVictim(t, c, NetParams{BacklogTTL: ttl})
			objs := c.orphans(t, net, 2)
			deliver(net, objs[0])
			net.Sim().RunUntil(2 * ttl)
			deliver(net, objs[1])
			if parked, evicted := c.buffer(net); parked != 1 || evicted != 1 {
				t.Fatalf("after the TTL: parked %d, evicted %d; want the stale object gone and the new one parked", parked, evicted)
			}
			if got := net.SyncStats().BacklogEvicted; got != 1 {
				t.Fatalf("SyncStats().BacklogEvicted = %d, want 1", got)
			}
		})
	}
}

// Cold start on the lattice: a node that missed the whole run range-pulls
// the canonical history stream after rejoin and converges on the
// observer's exact block set.
func TestNanoColdStartCatchesUp(t *testing.T) {
	cfg := NanoConfig{
		Net: NetParams{
			Nodes: 6, PeerDegree: 3, Seed: 531,
			MinLatency: 5 * time.Millisecond, MaxLatency: 25 * time.Millisecond,
		},
		Accounts: 12,
		Reps:     4,
	}
	net, err := NewNano(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the cold node's accounts out of the workload: a detached owner
	// would otherwise mint sends the network never sees.
	all := workload.Payments(rand.New(rand.NewSource(532)), workload.Config{
		Accounts: 12, Rate: 8, Duration: 3 * time.Second, MaxAmount: 3,
	})
	var transfers []workload.TimedPayment
	for _, p := range all {
		if p.From%cfg.Net.Nodes != 5 && p.To%cfg.Net.Nodes != 5 {
			transfers = append(transfers, p)
		}
	}
	net.ScheduleColdStart(5, 100*time.Millisecond, 4*time.Second, 16)
	net.RunWithTransfers(10*time.Second, transfers)

	took, ok := net.ColdSyncDone(5)
	if !ok {
		t.Fatalf("cold sync never completed: %+v", net.SyncStats())
	}
	if took <= 0 {
		t.Fatalf("cold sync took %v", took)
	}
	st := net.SyncStats()
	if st.RangePulls < 2 || st.BytesServed == 0 {
		t.Fatalf("range-pull machinery idle: %+v", st)
	}
	obs, cold := net.nodes[0].lat, net.nodes[5].lat
	if cold.GapCount() != 0 {
		t.Fatalf("cold node still has %d gaps", cold.GapCount())
	}
	if obs.BlockCount() != cold.BlockCount() {
		t.Fatalf("cold node holds %d blocks, observer %d", cold.BlockCount(), obs.BlockCount())
	}
}

// Cold start on the chain: a relay-only node that missed an hour of
// mining range-pulls the main chain after rejoin and converges.
func TestBitcoinColdStartCatchesUp(t *testing.T) {
	net, err := NewBitcoin(BitcoinConfig{
		Net: NetParams{
			Nodes: 6, PeerDegree: 3, Seed: 541,
			MinLatency: 5 * time.Millisecond, MaxLatency: 25 * time.Millisecond,
		},
		HashRates:     []float64{1, 1, 1, 1, 1, 0},
		BlockInterval: 2 * time.Second,
		Accounts:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.ScheduleColdStart(5, 1*time.Second, 60*time.Second, 8)
	m := net.Run(90 * time.Second)

	if m.BlocksOnMain == 0 {
		t.Fatal("no blocks mined")
	}
	if _, ok := net.ColdSyncDone(5); !ok {
		t.Fatalf("cold sync never completed: %+v", net.SyncStats())
	}
	if st := net.SyncStats(); st.RangePulls < 2 || st.BlocksServed == 0 {
		t.Fatalf("range-pull machinery idle: %+v", st)
	}
	if !net.ConvergedWithin(3) {
		t.Fatal("cold node's chain diverged after catch-up")
	}
}

// pullRig is a bare two-node runtime under an armed sync manager whose
// node 0 holds exactly the hash in held, and whose node 1 answers no
// request.
type pullRig struct {
	s    *sim.Simulator
	m    *syncManager
	held hashx.Hash
}

func newPullRig() *pullRig {
	s := sim.New(1)
	rt := newNodeRuntime(s, sim.NewNetwork(s, sim.UniformLinks{MinLatency: 5 * time.Millisecond, MaxLatency: 300 * time.Millisecond}))
	for i := 0; i < 2; i++ {
		rt.AddNode(func(sim.NodeID, any, int) {})
	}
	r := &pullRig{s: s}
	r.m = newSyncManager(rt, func(node sim.NodeID, h hashx.Hash) bool { return node == 0 && h == r.held })
	r.m.arm()
	return r
}

// A retry re-sends the chain's request and re-arms its bound tick: no
// allocation.
func TestPullRetryTickAllocatesNothing(t *testing.T) {
	r := newPullRig()
	r.m.Pull(0, hashx.Sum([]byte("never served")), 1)
	const runs = 50 // with the warm-up run, inside one attempt budget
	if n := testing.AllocsPerRun(runs, func() { r.s.RunFor(gapRepairDelay) }); n != 0 {
		t.Fatalf("a pull retry tick allocates %v times, want 0", n)
	}
	if got := r.m.stats.Retries; got != runs+1 {
		t.Fatalf("%d retries ran, want %d", got, runs+1)
	}
}

// A finished chain's record serves the next Pull: a new chain allocates
// only the request it sends, since the previous chain's may still be in
// flight (the link delay here outlasts gapRepairDelay), and every request
// keeps the hash it was sent with.
func TestPullReusesFinishedRecords(t *testing.T) {
	r := newPullRig()
	const runs = 50
	hashes := make([]hashx.Hash, 0, runs+1)
	sent := make([]*blockRequest, 0, runs+1)
	if n := testing.AllocsPerRun(runs, func() {
		h := hashx.Sum([]byte{byte(len(hashes))})
		r.m.Pull(0, h, 1)
		hashes = append(hashes, h)
		sent = append(sent, r.m.pulling[pullKey{node: 0, h: h}].req)
		r.held = h
		r.s.RunFor(gapRepairDelay)
	}); n > 1 {
		t.Fatalf("a pull chain allocates %v times, want at most its request", n)
	}
	if len(r.m.pulling) != 0 || len(r.m.free) != 1 {
		t.Fatalf("%d chains live and %d records free, want 0 and 1", len(r.m.pulling), len(r.m.free))
	}
	for i, req := range sent {
		if req.Hash != hashes[i] {
			t.Fatalf("chain %d's request was rewritten by a later chain", i)
		}
	}
}
