# Mirrors the CI pipeline (.github/workflows/ci.yml) so local runs and CI
# agree on what "green" means.
GO ?= go

.PHONY: build test examples race fuzz cover bench bench-commit bench-gate trace-shares lint all

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Build and run every example program: `build` only compiles them. All
# six take about 17 s on 2 vCPUs, most of it parallelsweep's two sweeps.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# Guards the worker-pool concurrency: event engine, experiment scheduler,
# lattice batch settlement, signature batching, parallel merkle hashing,
# the batched live-gossip + adversary paths in netsim, the pointer-
# shared content (genesis, genesis state, block catalog and its id index,
# transaction and coin catalog, id and root memos) under both chain
# ledgers — Bitcoin and Ethereum each share one block catalog per
# network — the lattice's block catalog and the tangle's vertex catalog,
# which must never cross networks, the trie arenas whose generation
# counter every account-model block execution writes (an Ethereum
# network's ledgers share one), the execution and transaction-carrier
# tables an Ethereum network's ledgers share, and every package whose
# objects embed a keys.SigMemo.
race:
	$(GO) test -race -timeout 60m ./internal/sim/... ./internal/core/... ./internal/lattice/... ./internal/keys/... ./internal/merkle/... ./internal/netsim/... ./internal/utxo/... ./internal/chain/... ./internal/account/... ./internal/orv/... ./internal/tangle/... ./internal/pos/... ./internal/trie/... ./internal/catalog/...

# Short fuzz smoke mirroring CI: the generic content catalog, pointer
# override and id memo against a map-plus-slice model, batch settlement vs serial apply under
# hostile block streams, link-model delay sanity for any bounds, the
# event queue (deferred handler runs included) against a naive
# minimum-scan model, tangle tip selection,
# three tangle replicas on one vertex catalog against their map models,
# three chain stores on one block catalog and two mempools on one
# transaction table against their map models, three UTXO sets on one
# coin catalog under apply/undo/reorg, three lattice replicas on one
# block catalog against their map models, the compact ORV tracker
# against the map tracker, the signature memo against cold
# verification, the bounded backlog against a naive
# oldest-live-entry scan, the owned world-state trie's snapshots,
# checkpoints and live root against a map model, three Ethereum ledgers
# on one execution table against ledgers that execute every block
# themselves, the network shell's
# receive under any delivery order of the observer's history, Nano's
# pending votes under any delivery order of blocks and their votes, and
# every paradigm's runs with duplicate sends elided against the same runs
# with nothing elided.
# Every fuzz target in the tree runs here.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCatalog$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/catalog
	$(GO) test -run '^$$' -fuzz '^FuzzLatticeProcessBatch$$' -fuzztime 30s ./internal/lattice
	$(GO) test -run '^$$' -fuzz '^FuzzLatticeReplicas$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/lattice
	$(GO) test -run '^$$' -fuzz '^FuzzTracker$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/orv
	$(GO) test -run '^$$' -fuzz '^FuzzLinkModelDelay$$' -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzPopOrder$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzTangleTipSelection$$' -fuzztime 30s ./internal/tangle
	$(GO) test -run '^$$' -fuzz '^FuzzTangleReplicas$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/tangle
	$(GO) test -run '^$$' -fuzz '^FuzzChainReplicas$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/chain
	$(GO) test -run '^$$' -fuzz '^FuzzMempool$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/utxo
	$(GO) test -run '^$$' -fuzz '^FuzzSetOwnerIndex$$' -fuzztime 15s ./internal/utxo
	$(GO) test -run '^$$' -fuzz '^FuzzSigMemo$$' -fuzztime 15s ./internal/keys
	$(GO) test -run '^$$' -fuzz '^FuzzBacklog$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/backlog
	$(GO) test -run '^$$' -fuzz '^FuzzStateSnapshots$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/account
	$(GO) test -run '^$$' -fuzz '^FuzzAccountReplicas$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/account
	$(GO) test -run '^$$' -fuzz '^FuzzDeliveryOrder$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/netsim
	$(GO) test -run '^$$' -fuzz '^FuzzVoteOrder$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/netsim
	$(GO) test -run '^$$' -fuzz '^FuzzElision$$' -fuzztime 15s -fuzzminimizetime 2s ./internal/netsim

# Coverage profile, the artifact CI uploads.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# One pass over every benchmark; bench_output.txt is the perf source of
# truth uploaded by CI. Redirect-then-cat (not tee) so a bench failure
# fails the target under plain /bin/sh. bench_output.json is the
# machine-readable sweep CI uploads alongside it.
bench:
	$(GO) test -short -bench=. -benchtime=1x -run '^$$' ./... > bench_output.txt || (cat bench_output.txt; exit 1)
	@cat bench_output.txt
	$(GO) run ./cmd/dltbench -scale 0.05 -format json > bench_output.json

# The committed perf baseline this branch is gated against; bump when a
# new trajectory point lands (see PERFORMANCE.md).
BENCH_BASELINE ?= BENCH_038.json

# Regenerate the committed perf trajectory point. Run on a quiet
# machine; review the diff against the previous baseline before
# committing (make bench-gate does exactly that comparison).
bench-commit:
	$(GO) run ./cmd/dltbench -bench-report -bench-label 038 -bench-out $(BENCH_BASELINE)

# The CI regression gate: re-run the suite (shorter measurement time,
# same workload scale) and fail on >15% ns/op or allocs/op regressions
# against the committed baseline.
bench-gate:
	$(GO) run ./cmd/dltbench -bench-compare $(BENCH_BASELINE) -bench-time 250ms

# Traced scale-gossip runs at seeds 1-10, one line each: the share of
# CPU samples the harness attributes to a layer (a run fails below
# 0.95), the run's exit status and the five heaviest leaf functions no
# layer claims, with their samples. A last line counts the seeds whose
# share is below 0.95 or missing, and the target fails when there are
# any. 80–150 s on 2 vCPUs, so it is not part of test; CI runs it only
# on demand (.github/workflows/trace-shares.yml).
trace-shares:
	@below=0; for s in 1 2 3 4 5 6 7 8 9 10; do \
		out="$$(bash benchmark/run.sh --workload scale-gossip --trace 1 --seed $$s 2>&1)"; code=$$?; \
		raw="$$(printf '%s\n' "$$out" | awk '$$1 == "trace.attributed_share" { print $$2 }')"; \
		share="$$(awk -v v="$$raw" 'BEGIN { if (v != "") printf "%.3f", v }')"; \
		leaves=""; \
		if [ -n "$$share" ]; then \
			leaves="$$(awk -F '": ' '/"unattributed": \{/ { on = 1; next } on && /^ *\},?$$/ { on = 0 } \
				on { sub(/^ *"/, "", $$1); sub(/,$$/, "", $$2); print $$2 "\t" $$1 }' benchmark/out/trace-scale-gossip.json | \
				sort -rn | head -5 | awk -F '\t' '{ printf "%s%s×%s", (NR > 1 ? ", " : ""), $$2, $$1 }')"; \
		fi; \
		echo "seed $$s share $${share:-none} exit $$code unclaimed: $$leaves"; \
		if [ -z "$$raw" ] || awk -v v="$$raw" 'BEGIN { exit !(v < 0.95) }'; then below=$$((below + 1)); fi; \
	done; \
	echo "below 0.95 at $$below of 10 seeds"; \
	[ "$$below" -eq 0 ]

lint:
	$(GO) vet ./...
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
