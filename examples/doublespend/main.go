// Doublespend: the paper's §IV confidence story on both paradigms. On
// the blockchain, an attacker with private hash power reverses a merchant
// payment by out-mining the public chain (why merchants wait six
// confirmations). On the Nano lattice, the same double spend becomes a
// fork that weighted representative votes resolve in under a second.
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/netsim"
	"repro/internal/pow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("== Blockchain: confirmation depth vs attacker hash power (§IV-A) ==")
	rng := rand.New(rand.NewSource(1))
	for _, q := range []float64{0.10, 0.30} {
		fmt.Printf("attacker with %.0f%% of the hash rate:\n", q*100)
		for _, z := range []int{1, 2, 6, 11} {
			analytic := pow.CatchUpProbability(q, z)
			empirical := netsim.EmpiricalCatchUp(rng, q, z, 3000)
			fmt.Printf("  wait %2d confirmations -> P(reversal) analytic %.4f, simulated %.4f\n",
				z, analytic, empirical)
		}
	}
	fmt.Println("the paper's guidance falls out: ~6 blocks (Bitcoin), 5–11 (Ethereum)")
	fmt.Println()

	fmt.Println("== DAG: the same double spend under Open Representative Voting (§IV-B) ==")
	net, err := netsim.NewNano(netsim.NanoConfig{
		Net: netsim.NetParams{
			Nodes: 10, PeerDegree: 3, Seed: 7,
			MinLatency: 20 * time.Millisecond, MaxLatency: 120 * time.Millisecond,
		},
		Accounts: 16,
		Reps:     4,
	})
	if err != nil {
		return err
	}
	// Account 5 signs two conflicting sends from the same predecessor:
	// one to the merchant (account 2), one back to itself via account 3,
	// the rival entering at the far side of the network (node 9).
	net.InjectContestedDoubleSpend(netsim.DoubleSpendPlan{
		Attacker: 5, VictimA: 2, VictimB: 3, Amount: 50, At: time.Second, Entry: 9,
	})
	m := net.Run(20 * time.Second)

	fmt.Printf("forks detected at the observer: %d\n", m.ForksDetected)
	fmt.Printf("blocks confirmed by representative quorum: %d (cemented: %d)\n",
		m.ConfirmedBlocks, m.CementedBlocks)
	if m.ConfirmLatency.N() > 0 {
		fmt.Printf("median confirmation latency: %.0f ms — no block depth to wait for\n",
			1000*m.ConfirmLatency.Quantile(0.5))
	}
	head, _ := net.Observer().Head(net.Ring().Addr(5))
	fmt.Printf("every replica converged on one winner for account 5's chain head: %s\n", head)
	fmt.Println("\"the winning transaction is the one that gained the most votes with regards to the voters weight\"")
	return nil
}
