package netsim

// The counted-not-scheduled arm is exact: a send of a catalog object to a
// node that already holds it is counted at send time instead of being
// delivered, and nothing a run reports may change. Every case runs each
// paradigm twice, as is and with HonestBehavior on every node — a node
// with a behavior is never an elision target, so the second run elides
// nothing — and the two must agree on EventsRun, the network, sync and
// behavior counters, the metrics and every node's canonical stream.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hashx"
	"repro/internal/sim"
	"repro/internal/workload"
)

// elisionShape is one run shape the differential test covers.
type elisionShape struct {
	name string
	// faults adds a partition, a loss window, a churned node and a cold
	// start; evict a BacklogCap and BacklogTTL small enough to evict, and
	// tight smaller ones still (TestEvictionWorkBounded); proc Nano's
	// per-block processing model.
	faults, evict, tight, proc bool
}

var elisionShapes = []elisionShape{
	{name: "fault-free"},
	{name: "faults", faults: true},
	{name: "evict", faults: true, evict: true},
	{name: "proc", proc: true},
}

// maxPending cuts a run short at the first sample whose queue holds more
// events: a relay storm, which a tiny backlog under faults can set off
// (CHANGES.md), would otherwise exhaust memory. The cut falls at the same
// logical point of both runs, which are then compared as they stand.
const elisionNodes, sampleEvery, maxPending = 12, 100 * time.Millisecond, 50_000

// errStorm is the panic that cuts a run at maxPending.
var errStorm = errors.New("relay storm")

// elisionRun is everything one run reports. events holds EventsRun read
// inside an event every sampleEvery and once more after the run; peak is
// the most events pending at one of those samples, and objects counts the
// payments submitted and the catalog ids the network handed out.
type elisionRun struct {
	events   []uint64
	peak     int
	objects  int
	net      sim.NetStats
	sync     SyncStats
	behavior BehaviorStats
	metrics  string
	streams  [][]hashx.Hash
}

// elisionAccounts and elisionHorizon size every run: its accounts, and
// the span its load and the run itself last.
const elisionAccounts, elisionHorizon = 24, 8 * time.Second

// elisionLoad is a run's payments. They run up to the horizon, so a cut
// falls inside floods and leaves elided arrivals in flight.
func elisionLoad(seed int64) []workload.TimedPayment {
	return workload.Payments(rand.New(rand.NewSource(seed+1)), workload.Config{
		Accounts: elisionAccounts, Rate: 10, Duration: elisionHorizon, MinAmount: 1, MaxAmount: 3,
	})
}

// elisionNet builds one paradigm's network for a shape and returns its
// shell, its fault hook and its run.
func elisionNet(t *testing.T, paradigm string, sh elisionShape, seed int64) (*netShell, func(FaultSchedule), func() any) {
	t.Helper()
	np := NetParams{
		Nodes: elisionNodes, PeerDegree: 3, Seed: seed,
		MinLatency: 5 * time.Millisecond, MaxLatency: 60 * time.Millisecond,
	}
	if sh.evict {
		np.BacklogCap, np.BacklogTTL = 4, 500*time.Millisecond
	}
	if sh.tight {
		np.BacklogCap, np.BacklogTTL = 2, 200*time.Millisecond
	}
	load := elisionLoad(seed)
	switch paradigm {
	case "bitcoin":
		net, err := NewBitcoin(BitcoinConfig{Net: np, BlockInterval: 700 * time.Millisecond, Accounts: elisionAccounts})
		if err != nil {
			t.Fatal(err)
		}
		return &net.netShell, func(fs FaultSchedule) { fs.ApplyToBitcoin(net) },
			func() any { return net.RunWithPayments(elisionHorizon, load, 1) }
	case "ethereum":
		net, err := NewEthereum(EthereumConfig{Net: np, Consensus: PoW, BlockInterval: 700 * time.Millisecond, Accounts: elisionAccounts})
		if err != nil {
			t.Fatal(err)
		}
		return &net.netShell, func(fs FaultSchedule) { fs.ApplyToEthereum(net) },
			func() any { return net.RunWithPayments(elisionHorizon, load, 1) }
	case "nano":
		cfg := NanoConfig{Net: np, Accounts: elisionAccounts, Reps: 4}
		if sh.proc {
			cfg.ProcPerBlock = 3 * time.Millisecond
		}
		net, err := NewNano(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return &net.netShell, func(fs FaultSchedule) { fs.ApplyToNano(net) },
			func() any { return net.RunWithTransfers(elisionHorizon, load) }
	case "tangle":
		net, err := NewTangle(TangleConfig{Net: np, Accounts: elisionAccounts})
		if err != nil {
			t.Fatal(err)
		}
		return &net.netShell, func(fs FaultSchedule) { net.scheduleFaults(fs, net) },
			func() any { return net.RunWithTransfers(elisionHorizon, load) }
	}
	t.Fatalf("unknown paradigm %q", paradigm)
	return nil, nil, nil
}

// runElision runs one paradigm in one shape, with HonestBehavior on every
// node when honest is set.
func runElision(t *testing.T, paradigm string, sh elisionShape, seed int64, honest bool) elisionRun {
	t.Helper()
	shell, faults, run := elisionNet(t, paradigm, sh, seed)
	if honest {
		for i := 0; i < elisionNodes; i++ {
			shell.rt.SetBehavior(sim.NodeID(i), HonestBehavior{})
		}
	}
	if sh.faults {
		faults(FaultSchedule{
			Partitions: []PartitionWindow{{At: 2 * time.Second, HealAt: 4 * time.Second, Groups: SplitGroups(elisionNodes, 0.4)}},
			Churn:      []ChurnWindow{{Node: 5, LeaveAt: 1500 * time.Millisecond, RejoinAt: 5 * time.Second}},
			Loss:       []LossWindow{{Rate: 0.3, At: time.Second, Until: 3 * time.Second}},
		})
		shell.ScheduleColdStart(9, 500*time.Millisecond, 5500*time.Millisecond, 4)
	}
	var r elisionRun
	var sample func()
	sample = func() {
		r.events = append(r.events, shell.rt.sim.EventsRun())
		r.peak = max(r.peak, shell.rt.sim.Pending())
		if shell.rt.sim.Pending() > maxPending {
			panic(errStorm)
		}
		shell.rt.sim.After(sampleEvery, sample)
	}
	shell.rt.sim.After(sampleEvery, sample)
	metrics := "cut at maxPending"
	func() {
		defer func() {
			if p := recover(); p != nil && p != errStorm {
				panic(p)
			}
		}()
		metrics = fmt.Sprintf("%+v", run())
	}()
	r = elisionRun{
		events:   append(r.events, shell.rt.sim.EventsRun()),
		peak:     r.peak,
		objects:  len(elisionLoad(seed)) + len(shell.born),
		net:      shell.rt.net.Stats(),
		sync:     shell.SyncStats(),
		behavior: shell.rt.Stats(),
		metrics:  metrics,
	}
	for i := 0; i < elisionNodes; i++ {
		n, at := shell.view.canonical(sim.NodeID(i))
		stream := make([]hashx.Hash, n)
		for j := range stream {
			obj, _ := at(j)
			stream[j] = objHash(obj)
		}
		r.streams = append(r.streams, stream)
	}
	return r
}

// sameRun fails unless two runs agree on everything but the elision
// counter.
func sameRun(t *testing.T, got, want elisionRun) {
	t.Helper()
	got.net.Elided, want.net.Elided = 0, 0
	var diffs []string
	if !slices.Equal(got.events, want.events) {
		diffs = append(diffs, fmt.Sprintf("EventsRun samples %v, want %v", got.events, want.events))
	}
	if got.net != want.net {
		diffs = append(diffs, fmt.Sprintf("NetStats %+v, want %+v", got.net, want.net))
	}
	if got.sync != want.sync {
		diffs = append(diffs, fmt.Sprintf("SyncStats %+v, want %+v", got.sync, want.sync))
	}
	if got.behavior != want.behavior {
		diffs = append(diffs, fmt.Sprintf("BehaviorStats %+v, want %+v", got.behavior, want.behavior))
	}
	if got.metrics != want.metrics {
		diffs = append(diffs, fmt.Sprintf("metrics\n  %s\nwant\n  %s", got.metrics, want.metrics))
	}
	if !reflect.DeepEqual(got.streams, want.streams) {
		diffs = append(diffs, "canonical streams differ")
	}
	if len(diffs) > 0 {
		t.Fatal(strings.Join(diffs, "\n"))
	}
}

// checkElision runs one paradigm and shape both ways, compares them and
// checks the shape did what it is for.
func checkElision(t *testing.T, paradigm string, sh elisionShape, seed int64) {
	t.Helper()
	as, honest := runElision(t, paradigm, sh, seed, false), runElision(t, paradigm, sh, seed, true)
	sameRun(t, as, honest)
	if honest.net.Elided != 0 {
		t.Fatalf("%d deliveries elided with a behavior on every node", honest.net.Elided)
	}
	switch {
	case sh.proc && paradigm == "nano":
		if as.net.Elided != 0 {
			t.Fatalf("%d deliveries elided under a processing model", as.net.Elided)
		}
	case as.net.Elided == 0:
		t.Fatal("nothing elided: the run does not exercise the arm")
	}
	if sh.evict && as.sync.BacklogEvicted == 0 {
		t.Fatal("no backlog eviction: the shape does not exercise unsee")
	}
	if sh.faults && as.net.Partitioned+as.net.ChurnDropped+as.net.LossDropped == 0 {
		t.Fatal("no fault dropped anything")
	}
}

func TestElisionIsExact(t *testing.T) {
	for _, p := range ParadigmNames() {
		for _, sh := range elisionShapes {
			if sh.proc && p != "nano" {
				continue
			}
			t.Run(p+"/"+sh.name, func(t *testing.T) { checkElision(t, p, sh, 71) })
		}
	}
}

// Under eviction, work stays bounded by what the network made. The shape
// is the relay storm's (ROADMAP.md direction 18): 12 nodes of degree 3,
// BacklogCap 2, BacklogTTL 200 ms, a partition, a loss window and churn,
// at seed −21 and the seeds around it. Each ledger must reach the horizon
// with at most nodes × objects events pending at every sample, or be
// named exempt with the loop that keeps it from doing so.
func TestEvictionWorkBounded(t *testing.T) {
	storm := elisionShape{name: "storm", faults: true, evict: true, tight: true}
	exempt := map[string]string{
		"tangle": "it relays a parked vertex at every first sight and an evicted vertex is first-seen again, " +
			"so seed −21 loops until maxPending cuts it (ROADMAP.md direction 18)",
		"nano": "bounded at seed −21, it loops at seeds −24 and −16 until maxPending cuts it " +
			"(CHANGES.md FOUND line on this test)",
	}
	for _, p := range ParadigmNames() {
		t.Run(p, func(t *testing.T) {
			if why, ok := exempt[p]; ok {
				t.Skip("exempt: " + why)
			}
			for seed := int64(-30); seed <= -15; seed++ {
				r := runElision(t, p, storm, seed, false)
				if r.metrics == "cut at maxPending" {
					t.Fatalf("seed %d: cut at %d pending events", seed, maxPending)
				}
				if limit := elisionNodes * r.objects; r.peak > limit {
					t.Fatalf("seed %d: %d events pending at a sample, over %d nodes × %d objects",
						seed, r.peak, elisionNodes, r.objects)
				}
			}
		})
	}
}

// FuzzElision runs the differential check on a paradigm, shape and seed
// drawn from the input.
func FuzzElision(f *testing.F) {
	f.Add(byte(0), byte(0), int64(1))
	f.Add(byte(2), byte(2), int64(5))
	f.Add(byte(3), byte(1), int64(9))
	f.Add(byte(3), byte(2), int64(118)) // a relay storm, cut at maxPending
	f.Fuzz(func(t *testing.T, p, sh byte, seed int64) {
		names := ParadigmNames()
		paradigm, shape := names[int(p)%len(names)], elisionShapes[int(sh)%len(elisionShapes)]
		if shape.proc && paradigm != "nano" {
			shape.proc = false
		}
		as, honest := runElision(t, paradigm, shape, seed, false), runElision(t, paradigm, shape, seed, true)
		sameRun(t, as, honest)
	})
}

// A behavior installed while a delivery to its node is elided and still
// in flight would have seen that delivery: SetBehavior refuses.
func TestSetBehaviorPanicsWithElidedDeliveryInFlight(t *testing.T) {
	net, err := NewTangle(TangleConfig{Net: NetParams{Nodes: elisionNodes, PeerDegree: 3, Seed: 71}, Accounts: 4})
	if err != nil {
		t.Fatal(err)
	}
	net.SubmitTransfer(workload.TimedPayment{Payment: workload.Payment{From: 1, To: 2, Amount: 1}, At: time.Millisecond})
	rt := net.rt
	victim := sim.NodeID(-1)
	for victim < 0 && rt.sim.Step() {
		for i, n := range rt.nodes {
			if n.lastElided > rt.sim.Now() {
				victim = sim.NodeID(i)
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("the flood elided nothing")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("SetBehavior on node %d with an elided arrival at %v, now %v, did not panic", victim, rt.nodes[victim].lastElided, rt.sim.Now())
			}
		}()
		rt.SetBehavior(victim, HonestBehavior{})
	}()
	rt.SetBehavior(victim, nil) // removing one is always allowed
	for rt.nodes[victim].lastElided >= rt.sim.Now() {
		rt.sim.RunUntil(rt.nodes[victim].lastElided + 1)
	}
	rt.SetBehavior(victim, HonestBehavior{}) // once every arrival is past, it is allowed
}
