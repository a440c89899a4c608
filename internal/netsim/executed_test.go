package netsim

// Tests for the executed-attack layer: the γ-parameterized selfish-mining
// race, the race-win state-machine regression, the adversary's
// indifference to repeat deliveries, eclipse lift/restore, and the E18 executed double-spend
// scenarios carried through to an actual wrong settlement on both
// ledgers.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/chain"
	"repro/internal/keys"
	"repro/internal/sim"
)

// testBlock crafts a payload-free chain block with a distinct hash.
func testBlock(height uint64, nonce uint64) *chain.Block {
	return &chain.Block{Header: chain.Header{Height: height, Nonce: nonce}}
}

// newTestSelfish builds a bare behavior with a recording release hook.
func newTestSelfish() (*SelfishMiningBehavior, *[]*chain.Block) {
	var released []*chain.Block
	b := &SelfishMiningBehavior{node: 7}
	b.release = func(blk *chain.Block) { released = append(released, blk) }
	return b, &released
}

// Regression for the race-win publish path: winning the 1-1 race by
// producing the next block must advance the public frontier past the
// published private branch. Before the fix, a stale honest block at the
// same height arriving later was miscounted as rival progress and
// tripped the lead policy — prematurely publishing a fresh private block
// against a branch the network had already abandoned.
func TestSelfishRaceWinAdvancesFrontier(t *testing.T) {
	b, released := newTestSelfish()

	if b.OnProduce(7, testBlock(1, 1)) {
		t.Fatal("first private block must be withheld")
	}
	// Honest rival at height 1: lead-1 race opens, private block published.
	b.OnInbound(7, 0, testBlock(1, 2), 0)
	if !b.raceOpen || len(*released) != 1 {
		t.Fatalf("race should be open with one release, got open=%v released=%d", b.raceOpen, len(*released))
	}
	// The adversary wins the race: next production publishes immediately.
	raceWin := testBlock(2, 3)
	if !b.OnProduce(7, raceWin) {
		t.Fatal("race-winning block must publish immediately")
	}
	if b.raceOpen {
		t.Fatal("producing the race-winning block must close the race")
	}
	if b.rivalHeight != 2 {
		t.Fatalf("rivalHeight = %d after publishing at height 2, want 2", b.rivalHeight)
	}
	// New private block on the now-public branch.
	if b.OnProduce(7, testBlock(3, 4)) {
		t.Fatal("post-race private block must be withheld")
	}
	// A stale honest sibling at the published height is NOT progress: it
	// must not cost a release or open a bogus race. (The race win above
	// published through the production path, so the release hook still
	// counts one call.)
	b.OnInbound(7, 0, testBlock(2, 5), 0)
	if b.raceOpen || len(*released) != 1 || b.Withheld() != 1 {
		t.Fatalf("stale sibling tripped the lead policy: open=%v released=%d withheld=%d",
			b.raceOpen, len(*released), b.Withheld())
	}
	// Genuine progress at height 3 opens the next race.
	b.OnInbound(7, 0, testBlock(3, 6), 0)
	if !b.raceOpen || len(*released) != 2 || b.Withheld() != 0 {
		t.Fatalf("real progress should race: open=%v released=%d withheld=%d",
			b.raceOpen, len(*released), b.Withheld())
	}
}

// Publishing at lead 2 (the instant win) must also advance the frontier
// to the deepest released block, so late same-height siblings are inert.
func TestSelfishLeadTwoReleaseAdvancesFrontier(t *testing.T) {
	b, released := newTestSelfish()
	b.OnProduce(7, testBlock(1, 1))
	b.OnProduce(7, testBlock(2, 2))
	b.OnInbound(7, 0, testBlock(1, 3), 0) // rival at 1 against lead 2
	if len(*released) != 2 || b.raceOpen {
		t.Fatalf("lead-2 must publish both without racing: released=%d open=%v", len(*released), b.raceOpen)
	}
	if b.rivalHeight != 2 {
		t.Fatalf("rivalHeight = %d after releasing through height 2, want 2", b.rivalHeight)
	}
	b.OnProduce(7, testBlock(3, 4)) // fresh private block
	b.OnInbound(7, 0, testBlock(2, 5), 0)
	if len(*released) != 2 || b.raceOpen || b.Withheld() != 1 {
		t.Fatalf("stale sibling after lead-2 release tripped the policy: released=%d open=%v withheld=%d",
			len(*released), b.raceOpen, b.Withheld())
	}
}

// The selfish miner keeps no dedup set, so a repeat delivery must not
// move it: a scripted run of private production and honest blocks
// (progress, same-height siblings and stale ones) is played once with
// every block delivered once, and once with every rival block delivered
// twice and every block the miner publishes fed back to it, as gossip
// brings it back. Both must release the same blocks in the same order
// and agree on withheld, raceOpen and rivalHeight after every step.
func TestSelfishRedeliveryIsNoOp(t *testing.T) {
	type state struct {
		released, withheld int
		raceOpen           bool
		rivalHeight        uint64
	}
	play := func(redeliver bool) ([]state, []*chain.Block) {
		b, released := newTestSelfish()
		rng := rand.New(rand.NewSource(5))
		var trace []state
		var public, private, nonce uint64
		fedBack := 0
		for step := 0; step < 400; step++ {
			nonce++
			var out []*chain.Block // what the miner published this step
			if rng.Intn(5) < 2 {
				private = max(public, private) + 1
				if blk := testBlock(private, nonce); b.OnProduce(7, blk) {
					out = append(out, blk)
				}
			} else {
				h := public + 1
				switch rng.Intn(4) {
				case 0:
					h = public // a sibling of the public tip
				case 1:
					h = max(public, 2) - 1 // a stale block
				}
				public = max(public, h)
				blk := testBlock(h, nonce)
				b.OnInbound(7, 0, blk, 0)
				if redeliver {
					b.OnInbound(7, 0, blk, 0)
				}
			}
			out = append(out, (*released)[fedBack:]...)
			fedBack = len(*released)
			for _, blk := range out {
				public = max(public, blk.Header.Height)
				if redeliver {
					b.OnInbound(7, 0, blk, 0)
				}
			}
			trace = append(trace, state{len(*released), b.Withheld(), b.raceOpen, b.rivalHeight})
		}
		return trace, *released
	}
	once, onceReleased := play(false)
	twice, twiceReleased := play(true)
	for i := range once {
		if once[i] != twice[i] {
			t.Fatalf("step %d: delivered once %+v, redelivered %+v", i, once[i], twice[i])
		}
	}
	races := 0
	for _, st := range once {
		if st.raceOpen {
			races++
		}
	}
	if races == 0 || len(onceReleased) == 0 || len(onceReleased) != len(twiceReleased) {
		t.Fatalf("%d steps with a race open, released %d blocks delivered once, %d redelivered",
			races, len(onceReleased), len(twiceReleased))
	}
	for i := range onceReleased {
		if onceReleased[i].Hash() != twiceReleased[i].Hash() {
			t.Fatalf("release %d differs", i)
		}
	}
}

// LiftEclipse must restore the victim's peer view and remove the
// behavior, and gossip must actually flow again afterwards.
func TestEclipseLiftRestores(t *testing.T) {
	net, err := NewBitcoin(BitcoinConfig{
		Net: fastNet(421), BlockInterval: 10 * time.Second, Accounts: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	original := append([]sim.NodeID(nil), net.Net().Peers(0)...)
	ecl := net.Runtime().InstallEclipse(0, 1)
	if ecl == nil || net.Runtime().BehaviorOf(0) == nil {
		t.Fatal("full eclipse must install a behavior")
	}
	if got := net.Net().Peers(0); len(got) != 0 {
		t.Fatalf("fully eclipsed victim still has peers: %v", got)
	}
	net.Runtime().LiftEclipse(ecl)
	if net.Runtime().BehaviorOf(0) != nil {
		t.Fatal("lift must remove the behavior")
	}
	restored := net.Net().Peers(0)
	if len(restored) != len(original) {
		t.Fatalf("peer view not restored: %v vs %v", restored, original)
	}
	for i, p := range original {
		if restored[i] != p {
			t.Fatalf("peer view not restored: %v vs %v", restored, original)
		}
	}
	// Lifting a nil behavior (frac <= 0 installed nothing) is a no-op.
	net.Runtime().LiftEclipse(nil)
}

// With γ = 1 every honest win during an open race must mine on the
// adversary's published block. The scenario is driven by hand: a private
// adversary block, an honest rival opening the race, then an honest
// production that must extend the adversary's branch.
func TestGammaRaceMinesOnAdversaryBlock(t *testing.T) {
	net, err := NewBitcoin(BitcoinConfig{
		Net: NetParams{
			Nodes: 3, PeerDegree: 2, Seed: 431,
			MinLatency: 5 * time.Millisecond, MaxLatency: 10 * time.Millisecond,
		},
		BlockInterval: 10 * time.Second, Accounts: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sm := net.InstallSelfishMinerGamma(2, 1)
	adv := net.produce(2, addrOf(2), net.difficulty) // withheld, private
	if sm.Withheld() != 1 {
		t.Fatal("adversary block should be withheld")
	}
	rival := net.produce(0, addrOf(0), net.difficulty) // honest rival at the same height
	net.Sim().RunUntil(time.Second)                    // relay settles; race opens at the adversary
	if !sm.raceOpen || sm.raceTip != adv.Hash() {
		t.Fatalf("race should be open on the adversary's block: open=%v", sm.raceOpen)
	}
	if _, ok := net.ledgers[1].Store().Get(adv.Hash()); !ok {
		t.Fatal("published adversary block should have reached node 1")
	}
	// γ = 1: the draw always mines on the adversary's block.
	if !net.raceProduce(1, addrOf(1), net.difficulty) {
		t.Fatal("γ=1 honest win during an open race must take the γ path")
	}
	tip := net.ledgers[1].Store().TipBlock()
	if tip.Header.Parent != adv.Hash() {
		t.Fatalf("γ block extends %s, want the adversary block %s (rival %s)",
			tip.Header.Parent, adv.Hash(), rival.Hash())
	}
}

// addrOf derives the same miner identity the production scheduler uses.
func addrOf(i int) keys.Address { return keys.DeterministicN("btc-miner", i).Address() }

// The executed eclipse double spend on the chain side: the victim
// self-confirms the fed payment to the merchant's depth rule, the heal
// releases the honest chain, and the payment is reverted while the rival
// spend stands.
func TestChainEclipseDoubleSpendExecutes(t *testing.T) {
	out := runChainDoubleSpend(t, 441, false)
	if !out.Accepted {
		t.Fatalf("victim never accepted the payment: %+v", out)
	}
	if !out.Reverted || out.HonestConfirmed {
		t.Fatalf("accepted payment was not reverted: %+v", out)
	}
	if !out.RivalConfirmed {
		t.Fatalf("rival spend did not confirm at the victim: %+v", out)
	}
}

// The partition-hidden fork variant: the double spend matures inside the
// minority split and the heal reorganizes it away.
func TestChainPartitionHiddenForkExecutes(t *testing.T) {
	out := runChainDoubleSpend(t, 443, true)
	if !out.Accepted {
		t.Fatalf("victim never accepted the payment: %+v", out)
	}
	if !out.Reverted || !out.RivalConfirmed {
		t.Fatalf("hidden fork did not execute: %+v", out)
	}
}

// runChainDoubleSpend drives the canonical scenario — the same
// constructor core's E18 rows build from, so these regressions pin the
// exact configuration the experiment runs.
func runChainDoubleSpend(t *testing.T, seed int64, partition bool) ChainDoubleSpendOutcome {
	t.Helper()
	cfg, plan, fs, dur := ChainDoubleSpendScenario(seed, partition)
	net, err := NewBitcoin(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fs != nil {
		fs.ApplyToBitcoin(net)
	}
	h := net.ScheduleDoubleSpend(plan)
	net.Run(dur)
	out := net.DoubleSpendVerdict(h)
	if !out.Injected {
		t.Fatal("double spend was not injected")
	}
	return out
}

// The executed eclipse double spend on the lattice side: the fed send
// attaches and settles at the victim but never reaches quorum there (the
// eclipsed victim cannot hear the representatives — Nano's defense), and
// the heal's fork election rolls the payment back.
func TestLatticeEclipseDoubleSpendExecutes(t *testing.T) {
	out := runLatticeDoubleSpend(t, 451, false)
	if !out.Accepted || !out.Settled {
		t.Fatalf("fed send never settled at the victim: %+v", out)
	}
	if out.ConfirmedAtVictim {
		t.Fatalf("eclipsed victim reached quorum, which should be impossible: %+v", out)
	}
	if !out.Reverted || out.HonestFinal || !out.RivalFinal {
		t.Fatalf("fork election did not revert the fed send: %+v", out)
	}
	if !out.Resolved {
		t.Fatalf("fork never resolved at the victim: %+v", out)
	}
}

// The partition-hidden fork on the lattice: minority-side attachment,
// majority-side quorum, post-heal re-election reverts the victim.
func TestLatticePartitionHiddenForkExecutes(t *testing.T) {
	out := runLatticeDoubleSpend(t, 453, true)
	if !out.Accepted {
		t.Fatalf("send never attached at the victim: %+v", out)
	}
	if out.ConfirmedAtVictim {
		t.Fatalf("minority side reached quorum, which should be impossible: %+v", out)
	}
	if !out.Reverted || !out.RivalFinal {
		t.Fatalf("hidden fork did not execute: %+v", out)
	}
}

// runLatticeDoubleSpend drives the canonical scenario — the same
// constructor core's E18 rows build from.
func runLatticeDoubleSpend(t *testing.T, seed int64, partition bool) LatticeDoubleSpendOutcome {
	t.Helper()
	cfg, plan, fs, dur := LatticeDoubleSpendScenario(seed, partition)
	net, err := NewNano(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fs != nil {
		fs.ApplyToNano(net)
	}
	h := net.ScheduleExecutedDoubleSpend(plan)
	net.Run(dur)
	out := net.ExecutedOutcome(h)
	if !out.Injected {
		t.Fatal("double spend was not injected")
	}
	return out
}

// An unscheduled plan must leave the pipeline untouched: the honest run
// with and without a constructed-but-never-armed handle is identical.
func TestExecutedPlansAreInertUntilScheduled(t *testing.T) {
	run := func(arm bool) NanoMetrics {
		net, err := NewNano(NanoConfig{Net: fastNet(461), Accounts: 16, Reps: 4})
		if err != nil {
			t.Fatal(err)
		}
		if arm {
			// Scheduled far past the run's end: the events never fire.
			net.ScheduleExecutedDoubleSpend(LatticeDoubleSpendPlan{
				Victim: 0, Attacker: 15, Merchant: 8, Rival: 9, Amount: 1,
				At: time.Hour, HealAt: 2 * time.Hour, Eclipse: true,
			})
		}
		return net.Run(3 * time.Second)
	}
	a, b := run(false), run(true)
	if a.BPS != b.BPS || a.MessagesSent != b.MessagesSent || a.BytesSent != b.BytesSent ||
		a.ConfirmedBlocks != b.ConfirmedBlocks {
		t.Fatalf("unfired plan perturbed the run:\n%+v\nvs\n%+v", a, b)
	}
}
