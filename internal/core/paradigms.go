package core

// The core side of the paradigm seam (netsim.ParadigmSpec): each
// registered ledger paradigm contributes rows to the cross-paradigm
// comparison experiments through one hook set here, and the experiments
// iterate the registry instead of hand-rolling every network. The hook
// table is keyed by the netsim registry names, iterated in registry
// order and filtered by Config.Paradigms, so adding a paradigm to the
// comparison tables is one table entry — the sweep loops in E9/E19/E20
// never change. A registered paradigm without a hook for some
// experiment simply contributes no rows there. Ethereum has no
// scaling-law or cold-start hook yet, and its story there is not the
// bitcoin row's with a shorter interval: on the 10⁴-node shape of
// netsim's per-node memory tests an Ethereum node holds 2.7 kB after a
// PoW run and 4.1 kB after a PoS run, against 1.3 kB for a Bitcoin node
// (PERFORMANCE.md, "Execute once per network").

import (
	"time"

	"repro/internal/netsim"
)

// netParams builds the standard simulated-network parameters every
// experiment shares: explicit topology and latency band.
func netParams(nodes, degree int, seed int64, minLat, maxLat time.Duration) netsim.NetParams {
	return netsim.NetParams{
		Nodes: nodes, PeerDegree: degree, Seed: seed,
		MinLatency: minLat, MaxLatency: maxLat,
	}
}

// paradigmEnabled reports whether the config selects the named
// paradigm. An empty filter — and the literal "all" — selects every
// registered paradigm; dltbench validates spellings before they get
// here, so an unknown name simply matches nothing.
func (c Config) paradigmEnabled(name string) bool {
	if len(c.Paradigms) == 0 {
		return true
	}
	for _, p := range c.Paradigms {
		if p == "all" || p == name {
			return true
		}
	}
	return false
}

// e9System is one E9 sweep system: a stable key derived from the
// registry name (ethereum contributes two consensus variants) plus the
// runner producing its row. The shape
// check looks systems up by key, so filtered sweeps skip the
// comparisons their systems are absent from.
type e9System struct {
	key string
	run func() (e9SysResult, error)
}

// paradigmHooks binds one registered paradigm to the comparison
// experiments it contributes rows to. Nil hooks contribute nothing.
type paradigmHooks struct {
	// e9 returns the paradigm's throughput-sweep systems (E9).
	e9 func(cfg Config) []e9System
	// e19 runs one scaling-law sweep point at the given network size.
	e19 func(cfg Config, nodes int) ([]string, error)
	// e20 runs one cold-start sweep point at the given history factor.
	e20 func(cfg Config, factor int) ([]string, error)
}

// paradigmHookTable maps netsim registry names to their hooks. Order
// comes from the registry (ParadigmSpec.Order), never from this map.
var paradigmHookTable = map[string]paradigmHooks{
	"bitcoin":  {e9: e9BitcoinSystems, e19: e19Chain, e20: e20Chain},
	"ethereum": {e9: e9EthereumSystems},
	"nano":     {e9: e9NanoSystems, e19: e19Nano, e20: e20Nano},
	"tangle":   {e9: e9TangleSystems, e19: e19Tangle, e20: e20Tangle},
}

// enabledParadigmHooks returns the hook sets of every selected
// paradigm, in registry order.
func enabledParadigmHooks(cfg Config) []paradigmHooks {
	var out []paradigmHooks
	for _, spec := range netsim.Paradigms() {
		if !cfg.paradigmEnabled(spec.Name) {
			continue
		}
		if h, ok := paradigmHookTable[spec.Name]; ok {
			out = append(out, h)
		}
	}
	return out
}

// e9Systems collects the throughput-sweep systems of every selected
// paradigm, in registry order — the E9 row order.
func e9Systems(cfg Config) []e9System {
	var out []e9System
	for _, h := range enabledParadigmHooks(cfg) {
		if h.e9 != nil {
			out = append(out, h.e9(cfg)...)
		}
	}
	return out
}

// sweepPointFn runs one sweep point of a per-size or per-factor
// comparison (E19's node counts, E20's history factors).
type sweepPointFn func(cfg Config, point int) ([]string, error)

// e19Systems and e20Systems collect the selected paradigms' sweep
// hooks in registry order — the per-point row order of E19 and E20.
func e19Systems(cfg Config) []sweepPointFn {
	var out []sweepPointFn
	for _, h := range enabledParadigmHooks(cfg) {
		if h.e19 != nil {
			out = append(out, h.e19)
		}
	}
	return out
}

func e20Systems(cfg Config) []sweepPointFn {
	var out []sweepPointFn
	for _, h := range enabledParadigmHooks(cfg) {
		if h.e20 != nil {
			out = append(out, h.e20)
		}
	}
	return out
}
