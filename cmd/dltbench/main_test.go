package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// Out-of-range adversary knobs must be rejected with the flag name in
// the message, and every in-range value — bounds included where legal —
// must pass. Before validateKnobs, a -eclipse-frac 1.5 silently fell
// back to the default sweep.
func TestValidateKnobs(t *testing.T) {
	if err := validateKnobs(knobRanges{}); err != nil {
		t.Fatalf("zero knobs rejected: %v", err)
	}
	if err := validateKnobs(knobRanges{
		eclipseFrac: 1, selfishAlpha: 0.45, selfishGamma: 1,
		withholdWeight: 1, partitionFrac: 0.5, churnNodes: 3, dsTrials: 10,
		syncPullBatch: 65536, backlogCap: 1 << 20, backlogTTL: 24 * time.Hour,
		megaNodes: 10_000_000,
		paradigms: []string{"bitcoin", "ethereum", "nano", "tangle"},
	}); err != nil {
		t.Fatalf("in-range knobs rejected: %v", err)
	}
	if err := validateKnobs(knobRanges{paradigms: []string{"all"}}); err != nil {
		t.Fatalf("-paradigm all rejected: %v", err)
	}
	bad := []struct {
		flag string
		k    knobRanges
	}{
		{"-eclipse-frac", knobRanges{eclipseFrac: 1.5}},
		{"-eclipse-frac", knobRanges{eclipseFrac: -0.1}},
		{"-selfish-alpha", knobRanges{selfishAlpha: -0.3}},
		{"-selfish-alpha", knobRanges{selfishAlpha: 1}},
		{"-selfish-gamma", knobRanges{selfishGamma: 1.01}},
		{"-selfish-gamma", knobRanges{selfishGamma: -1}},
		{"-withhold-weight", knobRanges{withholdWeight: -0.2}},
		{"-withhold-weight", knobRanges{withholdWeight: 2}},
		{"-fault-partition-frac", knobRanges{partitionFrac: 1}},
		{"-fault-churn-nodes", knobRanges{churnNodes: -1}},
		{"-double-spend-trials", knobRanges{dsTrials: -5}},
		{"-sync-pull-batch", knobRanges{syncPullBatch: -1}},
		{"-sync-pull-batch", knobRanges{syncPullBatch: 65537}},
		{"-backlog-cap", knobRanges{backlogCap: -8}},
		{"-backlog-cap", knobRanges{backlogCap: 1<<20 + 1}},
		{"-backlog-ttl", knobRanges{backlogTTL: -time.Second}},
		{"-backlog-ttl", knobRanges{backlogTTL: 25 * time.Hour}},
		{"-mega-nodes", knobRanges{megaNodes: -1}},
		{"-mega-nodes", knobRanges{megaNodes: 10_000_001}},
		{"-paradigm", knobRanges{paradigms: []string{"iota"}}},
		{"-paradigm", knobRanges{paradigms: []string{"bitcoin", "tangel"}}},
	}
	for _, c := range bad {
		err := validateKnobs(c.k)
		if err == nil {
			t.Fatalf("%s: out-of-range value accepted (%+v)", c.flag, c.k)
		}
		if !strings.Contains(err.Error(), c.flag) {
			t.Fatalf("error does not name the flag %s: %v", c.flag, err)
		}
	}
	// The unknown-paradigm message must teach the legal spellings.
	if err := validateKnobs(knobRanges{paradigms: []string{"iota"}}); err == nil ||
		!strings.Contains(err.Error(), "bitcoin") || !strings.Contains(err.Error(), "tangle") {
		t.Fatalf("unknown-paradigm error does not list the legal names: %v", err)
	}
}

// parseParadigms must map the default and explicit 'all' to the empty
// filter, split comma lists, and trim whitespace.
func TestParseParadigms(t *testing.T) {
	if got := parseParadigms("all"); got != nil {
		t.Fatalf("parseParadigms(all) = %v, want nil", got)
	}
	if got := parseParadigms(""); got != nil {
		t.Fatalf("parseParadigms('') = %v, want nil", got)
	}
	got := parseParadigms(" bitcoin, tangle ")
	if len(got) != 2 || got[0] != "bitcoin" || got[1] != "tangle" {
		t.Fatalf("parseParadigms = %v", got)
	}
	// 'all' mixed with names is passed through for validation to accept
	// (it matches everything in core), not silently collapsed.
	if got := parseParadigms("all,nano"); len(got) != 2 {
		t.Fatalf("parseParadigms(all,nano) = %v", got)
	}
}

// The event-queue knobs are gone with the backends they selected, and the
// Nano batch knobs with the batched gossip path: a leftover -shards 4,
// -queue calendar or -nano-batch 32 in a script must fail loudly —
// non-zero exit, the flag's name on stderr — not be silently ignored.
// The test re-executes its own binary as dltbench.
func TestRemovedQueueFlagsRejected(t *testing.T) {
	if args := os.Getenv("DLTBENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"dltbench"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"-shards 4 -list", "-queue calendar -list", "-nano-batch 32 -list", "-nano-batch-window 5ms -list"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedQueueFlagsRejected$")
		cmd.Env = append(os.Environ(), "DLTBENCH_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() == 0 {
			t.Fatalf("dltbench %s: want a non-zero exit, got err=%v\n%s", args, err, out)
		}
		name := strings.Fields(args)[0]
		if !strings.Contains(string(out), "flag provided but not defined: "+name) {
			t.Fatalf("dltbench %s: output does not name the rejected flag:\n%s", args, out)
		}
	}
}
