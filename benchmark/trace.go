package main

// The traced run: spans around the benchmark's own calls into the
// layers, and a CPU profile of the run regions bucketed by the package
// of each sample's leaf function. Nothing under internal/ is touched;
// spans and counters inside the program are a later change.

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"
)

// span is one timed call: workload › leg › {build, generate, submit,
// run, collect, check} and workload › replay.<layer>.<op>.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for the root
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced rounds pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	// profiles holds one finished CPU profile per run region.
	profiles []legProfile
}

type legProfile struct {
	leg string
	buf *bytes.Buffer
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span runs fn inside a child of the innermost open span.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := 0
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartMs: t.ms()})
	t.stack = append(t.stack, id)
	fn()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].EndMs = t.ms()
}

func (t *tracer) ms() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e6 }

// profile runs fn, one leg's run region, under the CPU profiler and
// keeps the profile.
func (t *tracer) profile(leg string, fn func()) error {
	if t == nil {
		fn()
		return nil
	}
	buf := new(bytes.Buffer)
	if err := pprof.StartCPUProfile(buf); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	t.profiles = append(t.profiles, legProfile{leg, buf})
	return nil
}

// repoLayers are the packages under repro/internal that get a bucket of
// their own (keys and hashx also take the standard library's crypto).
var repoLayers = []string{
	"sim", "netsim", "keys", "hashx", "merkle", "trie", "chain", "utxo", "account",
	"pow", "pos", "lattice", "orv", "tangle", "metrics", "workload",
}

// cpuLayers are the attribution buckets, in print order: the repo's
// packages, then the runtime split four ways, then everything else.
var cpuLayers = append(slices.Clone(repoLayers),
	"runtime-gc", "runtime-alloc", "runtime-map", "runtime-other", "stdlib", "harness")

// classify maps a function name, as the profile spells it, to a layer;
// "" means the function belongs to none.
func classify(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case fn == "":
		return ""
	case pkg == "":
		// The runtime's assembly bodies carry no package: aeshashbody,
		// memeqbody, cmpbody, indexbytebody.
		if strings.HasPrefix(fn, "aeshash") || strings.HasPrefix(fn, "memhash") {
			return "runtime-map"
		}
		return "runtime-other"
	case strings.HasPrefix(pkg, "repro/internal/"):
		if l := strings.TrimPrefix(pkg, "repro/internal/"); slices.Contains(repoLayers, l) {
			return l
		}
		return ""
	case pkg == "main" || pkg == "repro/benchmark":
		return "harness"
	case strings.Contains(pkg, "ed25519"), strings.Contains(pkg, "edwards25519"), strings.Contains(pkg, "sha512"):
		return "keys"
	case strings.Contains(pkg, "sha256"):
		return "hashx"
	case pkg == "internal/runtime/maps":
		return "runtime-map"
	case pkg == "runtime":
		return classifyRuntime(strings.TrimPrefix(fn, "runtime."))
	case strings.HasPrefix(pkg, "internal/runtime/"), pkg == "runtime/internal/atomic", pkg == "runtime/internal/sys":
		return "runtime-other"
	}
	return "stdlib"
}

// funcPackage cuts the import path off a symbol name:
// "crypto/internal/edwards25519/field.feMul" → ".../field",
// "repro/internal/sim.(*Simulator).Run" → "repro/internal/sim".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments carry import paths of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	return fn[:slash+1+dot]
}

var (
	gcPrefixes    = []string{"gc", "(*gc", "scan", "grey", "mark", "(*mark", "sweep", "(*sweep", "bgsweep", "bgscavenge", "(*scavenge", "wbBuf", "(*wbBuf", "(*mspan).sweep", "(*mheap).reclaim", "(*limiter", "(*gcWork", "(*gcBits", "findObject", "spanOf"}
	allocPrefixes = []string{"malloc", "newobject", "newarray", "makeslice", "growslice", "makechan", "(*mcache)", "(*mcentral)", "(*mheap).alloc", "nextFree", "(*mspan).init", "(*mspan).nextFree", "profilealloc", "persistentalloc", "deductAssistCredit"}
	mapPrefixes   = []string{"map", "(*hmap)", "(*bmap)", "memhash", "aeshash", "strhash", "nilinterhash", "interhash", "typehash", "evacuate", "hashGrow", "makemap"}
)

func classifyRuntime(name string) string {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(name, p) {
			return "runtime-gc"
		}
	}
	for _, p := range allocPrefixes {
		if strings.HasPrefix(name, p) {
			return "runtime-alloc"
		}
	}
	for _, p := range mapPrefixes {
		if strings.HasPrefix(name, p) {
			return "runtime-map"
		}
	}
	return "runtime-other"
}

// classifyStack buckets one sample, leaf first. The leaf function's
// package decides; a leaf in the undifferentiated runtime (memmove,
// memclr, atomics, locks) takes the bucket of the nearest runtime
// caller that has one, so a copy inside growslice counts as allocation
// and a mark-worker's helper as collection.
func classifyStack(stack []string) string {
	if len(stack) == 0 {
		return ""
	}
	layer := classify(stack[0])
	if layer != "runtime-other" {
		return layer
	}
	for _, fn := range stack[1:] {
		l := classify(fn)
		if l == "runtime-gc" || l == "runtime-alloc" || l == "runtime-map" {
			return l
		}
		if l != "runtime-other" {
			break // left the runtime: nothing above can refine the bucket
		}
	}
	return layer
}

// cpuTable is the decoded attribution of one traced round.
type cpuTable struct {
	Seconds map[string]float64 `json:"seconds"`
	// ByLeg splits Seconds by the leg whose run region was sampled.
	ByLeg      map[string]map[string]float64 `json:"cpu_by_leg"`
	Samples    int64                         `json:"samples"`
	Attributed int64                         `json:"attributed"`
	// Unattributed lists leaf functions no layer claimed, by samples.
	Unattributed map[string]int64 `json:"unattributed,omitempty"`
}

// attribute decodes the kept profiles into per-layer CPU seconds.
func (t *tracer) attribute() (cpuTable, error) {
	tab := cpuTable{Seconds: map[string]float64{}, ByLeg: map[string]map[string]float64{}, Unattributed: map[string]int64{}}
	for _, l := range cpuLayers {
		tab.Seconds[l] = 0
	}
	for _, p := range t.profiles {
		samples, err := decodeProfile(p.buf.Bytes())
		if err != nil {
			return tab, err
		}
		if tab.ByLeg[p.leg] == nil {
			tab.ByLeg[p.leg] = map[string]float64{}
		}
		for _, s := range samples {
			tab.Samples += s.count
			layer := classifyStack(s.stack)
			if layer == "" {
				leaf := "(no symbol)"
				if len(s.stack) > 0 {
					leaf = s.stack[0]
				}
				tab.Unattributed[leaf] += s.count
				continue
			}
			tab.Attributed += s.count
			tab.Seconds[layer] += float64(s.nanos) / 1e9
			tab.ByLeg[p.leg][layer] += float64(s.nanos) / 1e9
		}
	}
	return tab, nil
}

// topUnattributed names the heaviest unclaimed functions for messages.
func (c cpuTable) topUnattributed(n int) string {
	type kv struct {
		fn string
		n  int64
	}
	var all []kv
	for fn, k := range c.Unattributed {
		all = append(all, kv{fn, k})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].n > all[j].n || all[i].n == all[j].n && all[i].fn < all[j].fn })
	if len(all) > n {
		all = all[:n]
	}
	parts := make([]string, len(all))
	for i, e := range all {
		parts[i] = fmt.Sprintf("%s×%d", e.fn, e.n)
	}
	return strings.Join(parts, ", ")
}
