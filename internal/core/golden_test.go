package core

// Golden tables, pinned byte for byte. E1–E15 are the historical
// simulations captured from the pre-node-runtime networks: with every
// node on the honest pass-through Behavior the refactored
// BitcoinNet/EthereumNet/NanoNet must reproduce these files exactly —
// same simulations, same event order, same formatting. E16–E18 were
// captured when the executed-attack layer landed (E17 with the γ and
// analytic columns, E18 from its first version) and pin the adversarial
// tables the same way going forward.
//
// NOTE on provenance: the E1–E15 files were rendered with the
// rune-width Render fix already in place (it landed in the same PR,
// before the capture), so they differ from a literal pre-refactor
// binary's output ONLY in column padding around multibyte cells. Every
// cell value — the simulation data — is the pre-refactor networks'
// verbatim output.
//
// Regenerate (only when a deliberate table change lands) with:
//
//	go test ./internal/core -run TestGoldenTables -update-golden
//
// The files live in testdata/golden_E*.txt; goldenCfg below is the seed
// and scale they were captured at.

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden tables")

// goldenCfg is the fixed configuration the goldens were captured at.
// Workers is left at the default: tables are worker-count invariant.
func goldenCfg() Config { return Config{Seed: 7, Scale: 0.1} }

// goldenIDs are every pinned experiment: the historical E1–E15 the
// node-runtime refactor must preserve, the adversarial E16–E18
// captured when the executed-attack layer landed, the E19 scaling
// law captured with the struct-of-arrays node core, the E20
// cold-start bootstrap captured with the sync-manager layer, and the
// E21 tangle confirmation captured with the third-paradigm seam (E9,
// E19 and E20 were recaptured then: the registry lift itself replayed
// them byte-for-byte, and the tangle paradigm then appended its rows).
var goldenIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
	"E9", "E10", "E11", "E12", "E13", "E14", "E15",
	"E16", "E17", "E18", "E19", "E20", "E21",
}

func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	cfg := goldenCfg()
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := e.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := tbl.Render(&sb); err != nil {
				t.Fatal(err)
			}
			got := sb.String()
			assertJSONRoundTrip(t, tbl, got)
			path := filepath.Join("testdata", "golden_"+id+".txt")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden missing (run with -update-golden to capture): %v", err)
			}
			if got != string(want) {
				t.Fatalf("%s table diverged from the golden:\n--- got ---\n%s--- want ---\n%s", id, got, want)
			}
		})
	}
}

// assertJSONRoundTrip proves a table survives the machine-readable path
// losslessly: RenderJSON → unmarshal → FromDoc renders byte-identically
// to the original (the `dltbench -format json` acceptance property).
func assertJSONRoundTrip(t *testing.T, tbl *metrics.Table, rendered string) {
	t.Helper()
	var js strings.Builder
	if err := tbl.RenderJSON(&js); err != nil {
		t.Fatalf("RenderJSON: %v", err)
	}
	var doc metrics.TableDoc
	if err := json.Unmarshal([]byte(js.String()), &doc); err != nil {
		t.Fatalf("JSON not parseable: %v", err)
	}
	var back strings.Builder
	if err := metrics.FromDoc(doc).Render(&back); err != nil {
		t.Fatal(err)
	}
	if back.String() != rendered {
		t.Fatalf("JSON round-trip changed the table:\n--- round-tripped ---\n%s--- original ---\n%s", back.String(), rendered)
	}
}
