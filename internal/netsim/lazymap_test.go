package netsim

// Measured evidence for the lazy layout decision (PERFORMANCE.md): a
// lattice node's hot state lives in dense columns — the network's block
// catalog and SoA seen-state, the replica's head column and bitsets, the
// tracker's compact elections — and its cold state (forks, vote
// switching) in maps and lists that stay nil unless a node actually hits
// their path. Converting the cold ones to dense columns would charge
// every node for state only fork participants and representatives carry.
// These tests pin the coldness claim: after a loaded honest run no
// election holds a map, the fork state of every replica, tracker and node
// is nil, and the vote maps are nil on every non-rep node — so the lazy
// layout's worst case is the measured common case. The lattice and orv
// halves are unexported, so they are read by reflection: a rename fails
// the test loudly rather than passing it.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/orv"
	"repro/internal/workload"
)

// holdsMap reports whether a value of type t can reach a map through
// struct fields, arrays, slices and pointers.
func holdsMap(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Map:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return holdsMap(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsMap(t.Field(i).Type, seen) {
				return true
			}
		}
	}
	return false
}

// nilField reports whether the named unexported field of *p is nil.
func nilField(t *testing.T, p any, name string) bool {
	t.Helper()
	f := reflect.ValueOf(p).Elem().FieldByName(name)
	if !f.IsValid() {
		t.Fatalf("%T has no field %q: the layout this test guards has changed", p, name)
	}
	return f.IsNil()
}

func TestLatticeColdMapsStayNilOnHonestRuns(t *testing.T) {
	net, err := NewNano(NanoConfig{
		Net: NetParams{
			Nodes: 12, PeerDegree: 3, Seed: 31,
			MinLatency: 10 * time.Millisecond, MaxLatency: 80 * time.Millisecond,
		},
		Accounts: 32, Reps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	load := workload.Payments(rand.New(rand.NewSource(37)), workload.Config{
		Accounts: 32, Rate: 40, Duration: 20 * time.Second,
		MinAmount: 1, MaxAmount: 10,
	})
	m := net.RunWithTransfers(30*time.Second, load)
	if m.SettledAtObserver == 0 {
		t.Fatal("run settled nothing; the coldness measurement is vacuous")
	}

	// An election is slices sized by its ballot and voters: no election,
	// decided or live, can hold a map.
	if holdsMap(reflect.TypeOf(orv.Election{}), map[reflect.Type]bool{}) {
		t.Fatal("orv.Election can hold a map")
	}
	reps, votersAllocated := 0, 0
	for i, node := range net.nodes {
		// Fork state must never allocate without a fork: the replica's
		// rival records, the tracker's fork-win list and the node's fork
		// maps are only written by fork detection, ResolveFork paths and
		// vote races.
		if !nilField(t, node.lat, "forks") || !nilField(t, node.tracker, "forkWins") {
			t.Fatalf("node %d allocated replica or tracker fork state on an honest run", i)
		}
		if node.forkRoots != nil || node.forkPrev != nil {
			t.Fatalf("node %d allocated fork maps on an honest run", i)
		}
		if node.resolvedForks != nil {
			t.Fatalf("node %d allocated fork-resolution maps on an honest run", i)
		}
		for root, mine := range node.myVotes {
			if mine.switches != 0 {
				t.Fatalf("node %d switched its vote %d times on root %s on an honest run", i, mine.switches, root)
			}
		}
		// Vote state is confined to nodes hosting representatives.
		if len(node.repAccounts) > 0 {
			reps++
			if node.myVotes != nil {
				votersAllocated++
			}
			continue
		}
		if node.myVotes != nil {
			t.Fatalf("non-rep node %d allocated vote maps", i)
		}
	}
	if reps == 0 {
		t.Fatal("no node hosts a representative; the vote-map measurement is vacuous")
	}
	// Contested elections are the only plain-vote trigger in this build,
	// so even rep nodes may stay nil — the point is the upper bound.
	if votersAllocated > reps {
		t.Fatalf("vote maps on %d nodes, only %d host reps", votersAllocated, reps)
	}
}

// The adversarial counterpart: a contested double spend must light up
// exactly the fork paths the honest test proves cold — the lazy maps
// allocate where (and only where) the fork actually lands.
func TestLatticeForkMapsAllocateOnlyUnderForks(t *testing.T) {
	net, err := NewNano(NanoConfig{
		Net: NetParams{
			Nodes: 8, PeerDegree: 3, Seed: 41,
			MinLatency: 10 * time.Millisecond, MaxLatency: 60 * time.Millisecond,
		},
		Accounts: 16, Reps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.InjectContestedDoubleSpend(DoubleSpendPlan{
		At: 2 * time.Second, Attacker: 1, VictimA: 2, VictimB: 3, Amount: 50,
	})
	net.Run(20 * time.Second)
	allocated, replicaForks, forkWins := 0, 0, 0
	for _, node := range net.nodes {
		if node.forkRoots != nil {
			allocated++
		}
		if !nilField(t, node.lat, "forks") {
			replicaForks++
		}
		if !nilField(t, node.tracker, "forkWins") {
			forkWins++
		}
	}
	if allocated == 0 || replicaForks == 0 || forkWins == 0 {
		t.Fatalf("double spend resolved with fork maps on %d nodes, replica fork records on %d, tracker fork wins on %d",
			allocated, replicaForks, forkWins)
	}
}

// nilAt reports whether the field at the end of an unexported path from
// *p — pointers followed — is nil.
func nilAt(t *testing.T, p any, path ...string) bool {
	t.Helper()
	v := reflect.ValueOf(p)
	for _, name := range path {
		v = v.Elem().FieldByName(name)
		if !v.IsValid() {
			t.Fatalf("%T has no field path %v: the layout this test guards has changed", p, path)
		}
	}
	return v.IsNil()
}

// The chain twin. A Bitcoin node's hot state is bits over its network's
// block catalog and transaction table; its cold state is two per-node
// override maps (a block or transaction handed to it under another
// pointer than the catalog's) and two per-network overflow maps (a coin
// with a second spender, a transaction in a second block). An honest run
// without forks — every payment pooled at every node and mined once —
// must allocate none of them.
func TestChainColdMapsStayNilOnHonestRuns(t *testing.T) {
	net, err := NewBitcoin(BitcoinConfig{
		Net: NetParams{
			Nodes: 12, PeerDegree: 3, Seed: 31,
			MinLatency: 10 * time.Millisecond, MaxLatency: 60 * time.Millisecond,
		},
		BlockInterval: 30 * time.Second, Accounts: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	load := workload.Payments(rand.New(rand.NewSource(37)), workload.Config{
		Accounts: 16, Rate: 0.5, Duration: 5 * time.Minute, MaxAmount: 100,
	})
	m := net.RunWithPayments(6*time.Minute, load, 2)
	if m.ConfirmedTxs == 0 || m.BlocksOnMain < 5 {
		t.Fatalf("run too short: %d blocks, %d payments confirmed", m.BlocksOnMain, m.ConfirmedTxs)
	}
	if m.BlocksTotal != m.BlocksOnMain {
		t.Fatalf("%d of %d blocks forked off: the shape must be fork-free", m.BlocksTotal-m.BlocksOnMain, m.BlocksTotal)
	}
	for i, l := range net.ledgers {
		if !nilAt(t, l.Store(), "own") || !nilAt(t, l.Pool(), "own") {
			t.Fatalf("node %d allocated a pointer override on an honest run", i)
		}
	}
	for _, overflow := range []string{"spenders", "carriers"} {
		if !nilAt(t, net.ledgers[0], "set", "cat", overflow) {
			t.Fatalf("the network's %s overflow allocated on an honest run", overflow)
		}
	}
}

// The adversarial counterpart, on the executed double-spend shape (the
// partition-hidden fork E18 runs) under a light payment load: the rival
// pair gives one coin two spenders, and the payments both sides of the
// split mine land in two blocks each — exactly the paths the honest test
// proves cold. Every node still pools and stores the network's one
// pointer per id, so the per-node overrides stay nil even here.
func TestChainOverflowMapsFillUnderDoubleSpend(t *testing.T) {
	cfg, plan, fs, dur := ChainDoubleSpendScenario(443, true)
	net, err := NewBitcoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs.ApplyToBitcoin(net)
	h := net.ScheduleDoubleSpend(plan)
	// Background payments among accounts 0–4, outside the attack's.
	for _, p := range workload.Payments(rand.New(rand.NewSource(41)), workload.Config{
		Accounts: 5, Rate: 0.2, Duration: 2 * time.Minute, MaxAmount: 100,
	}) {
		net.SubmitPayment(p, 2)
	}
	net.Run(dur)
	if out := net.DoubleSpendVerdict(h); !out.Reverted {
		t.Fatalf("the double spend did not execute: %+v", out)
	}
	for _, overflow := range []string{"spenders", "carriers"} {
		if nilAt(t, net.ledgers[0], "set", "cat", overflow) {
			t.Fatalf("the network's %s overflow stayed nil under a double spend and a healed fork", overflow)
		}
	}
	for i, l := range net.ledgers {
		if !nilAt(t, l.Store(), "own") || !nilAt(t, l.Pool(), "own") {
			t.Fatalf("node %d allocated a pointer override without being handed a second pointer", i)
		}
	}
}

// The tangle twin. A tangle node's state is bits, an id list and a slot
// column over its network's vertex catalog; its one cold map holds the
// vertices it was handed under another pointer than the catalog's. An
// honest run — a cold node range-pulling history included — hands every
// node the network's one pointer per vertex, so no node may allocate it.
func TestTangleColdMapsStayNilOnHonestRuns(t *testing.T) {
	net, load := tangleTestNet(t, 3)
	net.ScheduleColdStart(7, 0, 15*time.Second, 32)
	m := net.RunWithTransfers(30*time.Second, load)
	if m.ConfirmedAtObserver == 0 {
		t.Fatal("run confirmed nothing; the coldness measurement is vacuous")
	}
	if _, ok := net.ColdSyncDone(7); !ok {
		t.Fatal("the cold node never finished its pull")
	}
	for i, node := range net.nodes {
		if !nilAt(t, node.tg, "own") {
			t.Fatalf("node %d allocated a pointer override on an honest run", i)
		}
	}
}
