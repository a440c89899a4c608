package netsim

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/account"
	"repro/internal/hashx"
	"repro/internal/keys"
	"repro/internal/orv"
	"repro/internal/tangle"
	"repro/internal/utxo"
	"repro/internal/workload"
)

func sigCountNet(seed int64) NetParams {
	return NetParams{
		Nodes: 8, PeerDegree: 3, Seed: seed,
		MinLatency: 20 * time.Millisecond, MaxLatency: 120 * time.Millisecond,
	}
}

func sigCountLoad() []workload.TimedPayment {
	return workload.Payments(rand.New(rand.NewSource(101)), workload.Config{
		Accounts: 16, Rate: 4, Duration: 3 * time.Minute, MinAmount: 1, MaxAmount: 5,
	})
}

// Every object of an honest run is signed by its owner's wallet, which
// seeds the verdict every node then reads (keys.SigMemo): past set-up,
// no network of any paradigm runs ed25519 verification at all.
func TestHonestRunsNeverReachEd25519(t *testing.T) {
	load := sigCountLoad()
	check := func(t *testing.T, before uint64, confirmed int) {
		t.Helper()
		if confirmed == 0 {
			t.Fatal("the run confirmed nothing")
		}
		if n := keys.Verifies() - before; n != 0 {
			t.Fatalf("%d ed25519 verifications in an honest run, want 0", n)
		}
	}
	for _, spec := range Paradigms() {
		t.Run(spec.Name, func(t *testing.T) {
			net, err := spec.Build(sigCountNet(97), BuildOptions{Accounts: 16})
			if err != nil {
				t.Fatal(err)
			}
			before := keys.Verifies()
			for _, p := range load {
				net.Submit(p)
			}
			check(t, before, net.RunSpan(6*time.Minute).Confirmed)
		})
	}
	// The registry's Ethereum is proof of work; the FFG votes of the
	// proof-of-stake flavour are signed objects too.
	t.Run("ethereum-pos", func(t *testing.T) {
		net, err := NewEthereum(EthereumConfig{
			Net: sigCountNet(98), Consensus: PoS, BlockInterval: 4 * time.Second, EpochLength: 5, Accounts: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		before := keys.Verifies()
		for _, p := range load {
			net.SubmitPayment(p, 1)
		}
		m := net.Run(4 * time.Minute)
		if net.Finality().FinalizedCheckpoints == 0 {
			t.Fatal("no checkpoint finalized: no FFG vote was counted")
		}
		check(t, before, m.ConfirmedTxs)
	})
}

// The DAG ledgers sign lazily (keys.SigMemo): a block, vote or vertex
// makes its ed25519 signature only when some code reads the bytes, and
// an honest run reads none — not one signature or verification over the
// whole run, although every wallet and representative signs. Reading
// them afterwards makes each one once, and each verifies cold.
func TestHonestDAGNetworksSignNothing(t *testing.T) {
	load := sigCountLoad()
	// run submits the load, runs it, and checks that the span made no
	// signature and no verification and that held objects signed
	// deferred are read once each, into bytes that verify.
	type signedObject struct {
		pub  []byte
		hash hashx.Hash
		sig  func() []byte
	}
	run := func(t *testing.T, net ParadigmNet, held func() []signedObject) {
		t.Helper()
		for _, p := range load {
			net.Submit(p)
		}
		signs, verifies := keys.Signs(), keys.Verifies()
		if net.RunSpan(6*time.Minute).Confirmed == 0 {
			t.Fatal("the run confirmed nothing")
		}
		if n, m := keys.Signs()-signs, keys.Verifies()-verifies; n != 0 || m != 0 {
			t.Fatalf("an honest run made %d ed25519 signatures and %d verifications, want 0 and 0", n, m)
		}
		objs := held()
		signs = keys.Signs()
		for i, o := range objs {
			if !keys.Verify(o.pub, o.hash[:], o.sig()) {
				t.Fatalf("object %d: its signature does not verify", i)
			}
		}
		if n := keys.Signs() - signs; n != uint64(len(objs)) {
			t.Fatalf("reading %d signatures made %d, want one each", len(objs), n)
		}
	}

	t.Run("nano", func(t *testing.T) {
		net, err := NewNano(NanoConfig{Net: sigCountNet(95), Accounts: 16, Reps: 4})
		if err != nil {
			t.Fatal(err)
		}
		run(t, nanoParadigm{net}, func() []signedObject {
			if net.metrics.VotesSent == 0 {
				t.Fatal("no representative voted")
			}
			var out []signedObject
			for _, b := range net.Observer().AllBlocks() {
				out = append(out, signedObject{b.PubKey, b.Hash(), b.Sig})
			}
			return out
		})
	})
	t.Run("tangle", func(t *testing.T) {
		net, err := NewTangle(TangleConfig{Net: sigCountNet(96), Accounts: 16, ConfirmWeight: 4})
		if err != nil {
			t.Fatal(err)
		}
		run(t, tangleParadigm{net}, func() []signedObject {
			var out []signedObject
			for _, v := range net.Observer().AllVertices() {
				out = append(out, signedObject{v.PubKey, v.Hash(), v.Sig})
			}
			return out
		})
	})
}

// forgeSig returns sig with one bit flipped, in a fresh slice.
func forgeSig(sig []byte) []byte {
	forged := append([]byte(nil), sig...)
	forged[11] ^= 0x04
	return forged
}

// A forged signature has no seeded verdict to ride: every node it
// reaches checks it with ed25519, every time, and rejects it.
func TestForgedSignaturesReachEd25519AndAreRejected(t *testing.T) {
	load := sigCountLoad()
	// reached fails unless the region since before ran ed25519 at least
	// once per node.
	reached := func(t *testing.T, before uint64, nodes int) {
		t.Helper()
		if n := keys.Verifies() - before; n < uint64(nodes) {
			t.Fatalf("%d ed25519 verifications for a forgery offered to %d nodes", n, nodes)
		}
	}

	t.Run("bitcoin", func(t *testing.T) {
		net, err := NewBitcoin(BitcoinConfig{Net: sigCountNet(91), BlockInterval: 30 * time.Second, Accounts: 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range load {
			net.SubmitPayment(p, 1)
		}
		net.Run(2 * time.Minute)
		tx, err := utxo.NewPayment(net.ledgers[0].UTXOSet(), net.ring.Pair(3), net.ring.Addr(4), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		forged := &utxo.Tx{Ins: append([]utxo.TxIn(nil), tx.Ins...), Outs: tx.Outs}
		forged.Ins[0].Sig = forgeSig(forged.Ins[0].Sig)
		before := keys.Verifies()
		for i, l := range net.ledgers {
			if err := l.SubmitTx(forged); !errors.Is(err, utxo.ErrBadSignature) {
				t.Fatalf("node %d: forged payment: %v, want ErrBadSignature", i, err)
			}
		}
		reached(t, before, len(net.ledgers))
	})

	t.Run("ethereum", func(t *testing.T) {
		net, err := NewEthereum(EthereumConfig{Net: sigCountNet(92), BlockInterval: 15 * time.Second, Accounts: 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range load {
			net.SubmitPayment(p, 1)
		}
		net.Run(2 * time.Minute)
		to := net.ring.Addr(4)
		forged := &account.Tx{Nonce: net.nonces[3], To: &to, Value: 1, GasLimit: account.GasTxBase, GasPrice: 1}
		forged.Sign(net.ring.Pair(3))
		forged.Sig = forgeSig(forged.Sig)
		before := keys.Verifies()
		for i, l := range net.ledgers {
			if err := l.SubmitTx(forged); !errors.Is(err, account.ErrBadSig) {
				t.Fatalf("node %d: forged transaction: %v, want ErrBadSig", i, err)
			}
		}
		reached(t, before, len(net.ledgers))
	})

	t.Run("nano", func(t *testing.T) {
		net, err := NewNano(NanoConfig{Net: sigCountNet(93), Accounts: 16, Reps: 4})
		if err != nil {
			t.Fatal(err)
		}
		net.RunWithTransfers(time.Minute, load[:40])

		// A send whose signature is forged, delivered to every node.
		send, err := net.nodes[0].lat.NewSend(net.ring.Pair(5), net.ring.Addr(6), 1)
		if err != nil {
			t.Fatal(err)
		}
		forged := send.WithSig(forgeSig(send.Sig()))
		before := keys.Verifies()
		for _, node := range net.nodes {
			net.receive(node.id, node.id, net.objectID(forged), forged, forged.EncodedSize())
			if _, ok := node.lat.Get(forged.Hash()); ok {
				t.Fatalf("node %d attached a block with a forged signature", node.id)
			}
		}
		reached(t, before, len(net.nodes))

		// A forged vote in an open election, at every node.
		vote := orv.NewVote(net.ring.Pair(0), send.Hash(), 1)
		vote = vote.WithSig(forgeSig(vote.Sig()))
		before = keys.Verifies()
		for _, node := range net.nodes {
			if err := node.tracker.StartElection(send.Hash(), send.Hash()); err != nil {
				t.Fatal(err)
			}
			if _, err := node.tracker.ProcessVote(send.Hash(), vote); !errors.Is(err, orv.ErrBadVoteSig) {
				t.Fatalf("node %d: forged vote: %v, want ErrBadVoteSig", node.id, err)
			}
		}
		reached(t, before, len(net.nodes))
	})

	t.Run("tangle", func(t *testing.T) {
		net, err := NewTangle(TangleConfig{Net: sigCountNet(94), Accounts: 16, ConfirmWeight: 4})
		if err != nil {
			t.Fatal(err)
		}
		net.RunWithTransfers(time.Minute, load[:40])
		a, b := net.nodes[0].tg.SelectTips(rand.New(rand.NewSource(1)))
		v := tangle.NewVertex(net.ring.Pair(5), 1<<20, a, b, net.ring.Addr(6), 1)
		forged := v.WithSig(forgeSig(v.Sig()))
		before := keys.Verifies()
		for _, node := range net.nodes {
			net.receive(node.id, node.id, net.objectID(forged), forged, forged.EncodedSize())
			if node.tg.Has(forged.Hash()) {
				t.Fatalf("node %d attached a vertex with a forged signature", node.id)
			}
		}
		reached(t, before, len(net.nodes))
	})
}
