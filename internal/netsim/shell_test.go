package netsim

// The network shell's contract: every paradigm serves the sync wire
// protocol from its history view through the one shell handler.

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/chain"
	"repro/internal/hashx"
	"repro/internal/lattice"
	"repro/internal/orv"
	"repro/internal/sim"
	"repro/internal/tangle"
	"repro/internal/workload"
)

// The objects the shell hands to every node by pointer each carry a
// content hash memo and an id memo, the DAG ones a signature memo too.
// One is allocated per object per network, so a field that pushes one
// into the next size class costs every workload that makes them. This
// pins their sizes on 64-bit platforms; the comments name the allocator's
// size class each lands in.
func TestSharedObjectSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"tangle.Vertex", unsafe.Sizeof(tangle.Vertex{}), 376}, // class 384 (352 without the id memo)
		{"lattice.Block", unsafe.Sizeof(lattice.Block{}), 384}, // class 384, filled
		{"chain.Block", unsafe.Sizeof(chain.Block{}), 232},     // class 240 (208 without the id memo)
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// shellOf reaches the shell behind a registry-built network.
func shellOf(t *testing.T, net ParadigmNet) *netShell {
	t.Helper()
	switch p := net.(type) {
	case bitcoinParadigm:
		return &p.netShell
	case ethereumParadigm:
		return &p.netShell
	case nanoParadigm:
		return &p.netShell
	case tangleParadigm:
		return &p.netShell
	}
	t.Fatalf("no shell behind %T", net)
	return nil
}

// recordFrom records and drops what a node receives from one sender.
// Votes pass: the lattice observer broadcasts them to every node, and
// they are not part of the sync protocol.
type recordFrom struct {
	HonestBehavior
	from sim.NodeID
	got  []any
}

func (r *recordFrom) OnInbound(_, from sim.NodeID, payload any, _ int) bool {
	if _, vote := payload.(*orv.Vote); vote || from != r.from {
		return true
	}
	r.got = append(r.got, payload)
	return false
}

// After a short honest run, node 1 pulls from node 0 the observer's
// newest canonical object by hash and one range window. Exactly those
// objects come back, the serve counters count them, and the window's
// trailing reply reports the observer's canonical length.
func TestShellServesEveryParadigm(t *testing.T) {
	np := NetParams{
		Nodes: 6, PeerDegree: 3, Seed: 67,
		MinLatency: 5 * time.Millisecond, MaxLatency: 20 * time.Millisecond,
	}
	load := workload.Payments(rand.New(rand.NewSource(68)), workload.Config{
		Accounts: 12, Rate: 2, Duration: time.Minute, MinAmount: 1, MaxAmount: 5,
	})
	for _, spec := range Paradigms() {
		t.Run(spec.Name, func(t *testing.T) {
			net, err := spec.Build(np, BuildOptions{Accounts: 12})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range load {
				net.Submit(p)
			}
			net.RunSpan(2 * time.Minute)

			sh := shellOf(t, net)
			n, at := sh.view.canonical(0)
			if n < 3 || n != net.CanonicalLength() {
				t.Fatalf("observer's canonical stream holds %d objects, CanonicalLength %d", n, net.CanonicalLength())
			}
			// The window [n-3, n-1) stops short of the newest object, so
			// every requested object is distinct.
			newest, newestSize := at(n - 1)
			from, max := n-3, 2
			want := map[any]int{newest: newestSize}
			for i := from; i < from+max; i++ {
				obj, size := at(i)
				want[obj] = size
			}

			// Node 0 relays nothing more, so all it sends node 1 is served.
			net.Net().SetPeersOf(0, nil)
			rec := &recordFrom{from: 0}
			net.Runtime().SetBehavior(1, rec)
			before := net.SyncStats()
			net.Runtime().Unicast(1, 0, &blockRequest{Hash: newest.(interface{ Hash() hashx.Hash }).Hash()}, blockRequestSize)
			net.Runtime().Unicast(1, 0, &rangeRequest{From: from, Max: max}, rangeMsgSize)
			net.Sim().RunUntil(net.Sim().Now() + 200*time.Millisecond)

			var reply *rangeReply
			served := map[any]bool{}
			for _, msg := range rec.got {
				if r, ok := msg.(*rangeReply); ok {
					if reply != nil {
						t.Fatal("two range replies for one window")
					}
					reply = r
					continue
				}
				if _, ok := want[msg]; !ok {
					t.Fatalf("served %T that was not requested", msg)
				}
				served[msg] = true
			}
			if len(served) != len(want) || len(rec.got) != len(want)+1 {
				t.Fatalf("node 1 got %d messages covering %d of %d requested objects", len(rec.got), len(served), len(want))
			}
			var bytes int64
			for _, size := range want {
				bytes += int64(size)
			}
			after := net.SyncStats()
			if got := after.BlocksServed - before.BlocksServed; got != 1+max {
				t.Fatalf("BlocksServed counted %d, want %d", got, 1+max)
			}
			if got := after.BytesServed - before.BytesServed; got != bytes {
				t.Fatalf("BytesServed counted %d, want %d", got, bytes)
			}
			if reply == nil || reply.Next != from+max || reply.Total != net.CanonicalLength() {
				t.Fatalf("range reply %+v, want Next %d and Total %d", reply, from+max, net.CanonicalLength())
			}
		})
	}
}

// mintLog records, for every object a node floods as its own, which node
// made it and when.
type mintLog struct {
	HonestBehavior
	sim  *sim.Simulator
	made map[hashx.Hash]minted
}

type minted struct {
	node sim.NodeID
	at   time.Duration
}

func (m *mintLog) OnProduce(node sim.NodeID, obj any) bool {
	m.made[obj.(interface{ Hash() hashx.Hash }).Hash()] = minted{node, m.sim.Now()}
	return true
}

// observerCatalogID returns the id the observer's ledger catalogues h
// under.
func observerCatalogID(t *testing.T, net ParadigmNet, h hashx.Hash) int32 {
	t.Helper()
	switch p := net.(type) {
	case bitcoinParadigm:
		id, _ := p.Observer().Store().IDOf(h)
		return int32(id)
	case ethereumParadigm:
		id, _ := p.Observer().Store().IDOf(h)
		return int32(id)
	case nanoParadigm:
		return int32(p.Observer().Index().Intern(h))
	case tangleParadigm:
		return int32(p.Observer().Index().Intern(h))
	}
	t.Fatalf("no observer ledger behind %T", net)
	return 0
}

// The shell keeps provenance on the ledgers' catalog ids: for every
// object the observer has attached — its canonical history plus every
// minted object it holds — makerOf and bornAt of the object's catalog id
// name the node and the sim time that minted it, and objects nobody
// minted (genesis, Nano's setup distribution) carry no provenance.
func TestShellIDsAreCatalogIDs(t *testing.T) {
	np := NetParams{
		Nodes: 6, PeerDegree: 3, Seed: 71,
		MinLatency: 5 * time.Millisecond, MaxLatency: 20 * time.Millisecond,
	}
	load := workload.Payments(rand.New(rand.NewSource(72)), workload.Config{
		Accounts: 12, Rate: 2, Duration: time.Minute, MinAmount: 1, MaxAmount: 5,
	})
	for _, spec := range Paradigms() {
		t.Run(spec.Name, func(t *testing.T) {
			net, err := spec.Build(np, BuildOptions{Accounts: 12})
			if err != nil {
				t.Fatal(err)
			}
			log := &mintLog{sim: net.Sim(), made: map[hashx.Hash]minted{}}
			for i := 0; i < np.Nodes; i++ {
				net.Runtime().SetBehavior(sim.NodeID(i), log)
			}
			for _, p := range load {
				net.Submit(p)
			}
			net.RunSpan(5 * time.Minute)

			sh := shellOf(t, net)
			attached := map[hashx.Hash]bool{}
			n, at := sh.view.canonical(0)
			for i := 0; i < n; i++ {
				obj, _ := at(i)
				attached[obj.(interface{ Hash() hashx.Hash }).Hash()] = true
			}
			for h := range log.made {
				if sh.view.has(0, h) {
					attached[h] = true
				}
			}
			checked := 0
			for h := range attached {
				id := observerCatalogID(t, net, h)
				if id == 0 {
					t.Fatalf("attached object %x has no catalog id", h[:4])
				}
				born, ok := sh.bornAt(id)
				m, wasMinted := log.made[h]
				if !wasMinted {
					if maker := sh.makerOf(id); ok || maker != -1 {
						t.Fatalf("unminted object %x (id %d): maker %d, born %v %v", h[:4], id, maker, born, ok)
					}
					continue
				}
				if maker := sh.makerOf(id); maker != int32(m.node) || !ok || born != m.at {
					t.Fatalf("object %x (id %d) minted by node %d at %v: makerOf %d, bornAt %v %v",
						h[:4], id, m.node, m.at, maker, born, ok)
				}
				checked++
			}
			if checked < 5 {
				t.Fatalf("only %d minted objects attached at the observer", checked)
			}
		})
	}
}
