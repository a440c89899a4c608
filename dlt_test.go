package dlt

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestFacadeRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 21 {
		t.Fatalf("registry = %d experiments, want 21", len(exps))
	}
	e, err := ExperimentByID("E1")
	if err != nil || e.ID != "E1" {
		t.Fatalf("ExperimentByID: %+v %v", e, err)
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRunExperimentRenders(t *testing.T) {
	var sb strings.Builder
	if err := RunExperiment(context.Background(), "E1", Config{Seed: 3, Scale: 0.2}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Fig. 1") || !strings.Contains(out, "genesis") {
		t.Fatalf("render missing content:\n%s", out)
	}
	if err := RunExperiment(context.Background(), "E99", Config{}, &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// The facade scheduler must run the registry concurrently and report
// per-experiment results in registry order.
func TestFacadeRunAll(t *testing.T) {
	report, err := RunAll(Config{Seed: 5, Scale: 0.05}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Runs) != 21 {
		t.Fatalf("sweep ran %d/21 experiments", len(report.Runs))
	}
	for i, r := range report.Runs {
		if r.Experiment.ID != Experiments()[i].ID {
			t.Fatalf("run %d is %s, want registry order", i, r.Experiment.ID)
		}
		if r.Table == nil || r.Err != nil {
			t.Fatalf("%s: table=%v err=%v", r.Experiment.ID, r.Table, r.Err)
		}
	}
	var sb strings.Builder
	if err := report.Table().Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "speedup=") {
		t.Fatalf("timing table missing speedup note:\n%s", sb.String())
	}
}

func TestFacadeParadigms(t *testing.T) {
	want := map[string]string{"bitcoin": "blockchain", "ethereum": "blockchain", "nano": "dag", "tangle": "dag"}
	specs := Paradigms()
	if len(specs) != len(want) {
		t.Fatalf("registry holds %d paradigms, want %d", len(specs), len(want))
	}
	for _, s := range specs {
		if want[s.Name] != s.Family {
			t.Fatalf("paradigm %q has family %q, want %q", s.Name, s.Family, want[s.Name])
		}
	}
}

// The facade constructors must build runnable networks end to end.
func TestFacadeNetworks(t *testing.T) {
	btc, err := NewBitcoinNetwork(BitcoinConfig{
		Net:           NetParams{Nodes: 6, PeerDegree: 2, Seed: 1, MinLatency: 10 * time.Millisecond, MaxLatency: 40 * time.Millisecond},
		BlockInterval: 20 * time.Second,
		Accounts:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := btc.Run(3 * time.Minute); m.BlocksOnMain == 0 {
		t.Fatal("bitcoin facade produced no blocks")
	}

	eth, err := NewEthereumNetwork(EthereumConfig{
		Net:       NetParams{Nodes: 6, PeerDegree: 2, Seed: 2, MinLatency: 10 * time.Millisecond, MaxLatency: 40 * time.Millisecond},
		Consensus: PoS,
		Accounts:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := eth.Run(2 * time.Minute); m.BlocksOnMain == 0 {
		t.Fatal("ethereum facade produced no blocks")
	}

	nano, err := NewNanoNetwork(NanoConfig{
		Net:      NetParams{Nodes: 6, PeerDegree: 2, Seed: 3, MinLatency: 10 * time.Millisecond, MaxLatency: 40 * time.Millisecond},
		Accounts: 12,
		Reps:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	transfers := []workload.TimedPayment{
		{At: time.Second, Payment: workload.Payment{From: 1, To: 2, Amount: 5}},
		{At: 2 * time.Second, Payment: workload.Payment{From: 3, To: 4, Amount: 5}},
	}
	m := nano.RunWithTransfers(20*time.Second, transfers)
	if m.SettledAtObserver != 2 {
		t.Fatalf("nano facade settled %d/2 transfers", m.SettledAtObserver)
	}
}
