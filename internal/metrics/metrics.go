// Package metrics provides the measurement and reporting plumbing for the
// experiments: counters, sample histograms with percentiles, time series,
// and the aligned text tables the benchmark harness prints so that each
// experiment's output reads like the corresponding table in the paper.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Histogram accumulates float64 samples and answers distribution queries.
// The zero value is ready to use and stores every sample exactly;
// SetBudget caps the exact storage for mega-scale runs.
type Histogram struct {
	samples []float64 // every sample while exact; nil once collapsed
	sorted  bool
	sum     float64
	budget  int
	// Past the budget: one P² marker set per tracked quantile, and the
	// count, sum of squares and extremes, which stay exact.
	est      []p2est
	n        int
	sumsq    float64
	min, max float64
}

// SetBudget caps exact sample storage at n: past the budget the
// histogram collapses into P² estimators (Jain & Chlamtac 1985) and runs
// in O(1) memory, with count/sum/mean/min/max still exact and quantiles
// P² estimates. Until the budget is crossed every query is exact, so a
// budgeted histogram renders byte-identically to an unbudgeted one on
// any run that stays below it — which is how the golden tables survive
// the mega-scale budget. n <= 0 removes the cap (the default);
// budgets below 32 are clamped up so the P² markers always have a
// real distribution to warm-start from. Everything stays deterministic —
// same samples in the same order, same answers — so budgeted tables are
// shard- and worker-invariant.
func (h *Histogram) SetBudget(n int) {
	if n > 0 && n < 32 {
		n = 32
	}
	h.budget = n
	if n > 0 && len(h.samples) > n {
		h.collapse()
	}
}

// collapse warm-starts one P² estimator per tracked quantile from the
// exact samples and drops them.
func (h *Histogram) collapse() {
	h.ensureSorted()
	s := h.samples
	h.n, h.sumsq = len(s), 0
	for _, v := range s {
		h.sumsq += v * v
	}
	h.min, h.max = s[0], s[len(s)-1]
	h.est = make([]p2est, len(trackedQuantiles))
	for i, p := range trackedQuantiles {
		h.est[i] = newP2(p, s)
	}
	h.samples, h.sorted = nil, false
}

// observe records one sample in the collapsed state, leaving the sum to
// the caller.
func (h *Histogram) observe(v float64) {
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sumsq += v * v
	for i := range h.est {
		h.est[i].add(v)
	}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.sum += v
	if h.est != nil {
		h.observe(v)
		return
	}
	h.samples = append(h.samples, v)
	h.sorted = false
	if h.budget > 0 && len(h.samples) > h.budget {
		h.collapse()
	}
}

// AddDuration records a duration sample in seconds.
func (h *Histogram) AddDuration(d time.Duration) { h.Add(d.Seconds()) }

// Merge folds another histogram's samples into h — pooling per-trial
// distributions so quantiles and means are computed over every sample,
// not averaged over summaries. Merging a collapsed histogram keeps
// counts, sums, moments and extremes exact but merges quantile state
// approximately (the other side's marker heights are fed through h's
// estimators); budgeted mega-runs only ever merge at summary accuracy.
func (h *Histogram) Merge(other *Histogram) {
	h.sum += other.sum
	switch {
	case other.est == nil && h.est != nil:
		for _, v := range other.samples {
			h.observe(v)
		}
	case other.est == nil:
		h.samples = append(h.samples, other.samples...)
		h.sorted = false
		if h.budget > 0 && len(h.samples) > h.budget {
			h.collapse()
		}
	case h.est == nil && len(h.samples) < 32:
		// Too few exact samples to warm-start markers from: fold them
		// into a copy of the other side's collapsed state instead.
		mine := h.samples
		h.est = slices.Clone(other.est)
		h.n, h.sumsq, h.min, h.max = other.n, other.sumsq, other.min, other.max
		h.samples, h.sorted = nil, false
		for _, v := range mine {
			h.observe(v)
		}
	default:
		if h.est == nil {
			h.collapse()
		}
		for i := range h.est {
			for _, o := range other.est {
				for _, q := range o.q {
					h.est[i].add(q)
				}
			}
		}
		h.n += other.n
		h.sumsq += other.sumsq
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// N returns the number of samples.
func (h *Histogram) N() int {
	if h.est != nil {
		return h.n
	}
	return len(h.samples)
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	n := h.N()
	if n == 0 {
		return 0
	}
	return h.sum / float64(n)
}

func (h *Histogram) ensureSorted() {
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) by nearest-rank, or 0 with
// no samples. Past a SetBudget collapse it is the P² estimate of the
// nearest tracked quantile (p <= 0 and p >= 1 stay exact via min/max),
// clamped into [min, max].
func (h *Histogram) Quantile(p float64) float64 {
	if h.est != nil {
		return h.estimate(p)
	}
	if len(h.samples) == 0 {
		return 0
	}
	h.ensureSorted()
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 1 {
		return h.samples[len(h.samples)-1]
	}
	idx := int(math.Ceil(p*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() float64 { return h.Quantile(0) }

// Max returns the largest sample, or 0 with no samples.
func (h *Histogram) Max() float64 { return h.Quantile(1) }

// P999 returns the 0.999 quantile — the deep-tail latency column the
// workload-realism experiments report next to p50/p99.
func (h *Histogram) P999() float64 { return h.Quantile(0.999) }

// Stddev returns the population standard deviation: two-pass while
// exact, from the moments once collapsed.
func (h *Histogram) Stddev() float64 {
	if h.est != nil {
		mean := h.Mean()
		if v := h.sumsq/float64(h.n) - mean*mean; v > 0 {
			return math.Sqrt(v)
		}
		return 0
	}
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	mean := h.Mean()
	var acc float64
	for _, v := range h.samples {
		d := v - mean
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

// Summary returns a one-line human-readable distribution summary.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f max=%.3f",
		h.N(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Max())
}

// Series is an append-only (x, y) series, used for sweep outputs such as
// "orphan rate vs block interval".
type Series struct {
	Name string
	Xs   []float64
	Ys   []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.Xs = append(s.Xs, x)
	s.Ys = append(s.Ys, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Xs) }

// Table renders experiment results as an aligned text table, mirroring how
// the paper reports comparisons.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row, normalizing its arity to the header count: cells
// beyond the header count are dropped, missing cells are padded empty.
// Rows therefore always align with the headers and Render can never index
// out of range, whatever arity the caller passed.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a footnote line rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns a deep copy of the data rows — cross-experiment checks
// (e.g. "E14's baseline cells equal E9's") compare cells through it.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, row := range t.rows {
		out[i] = append([]string(nil), row...)
	}
	return out
}

// Headers returns a copy of the column headers.
func (t *Table) Headers() []string { return append([]string(nil), t.headers...) }

// Notes returns a copy of the footnote lines.
func (t *Table) Notes() []string { return append([]string(nil), t.notes...) }

// Render writes the table to w. Column widths are measured in runes, not
// bytes: headers and cells carry multibyte characters (§, –, ≥), and
// byte-length padding would misalign every column after them.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(widths) {
				break
			}
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				break
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	for _, n := range t.notes {
		b.WriteString("  * ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (header row first, notes omitted).
func (t *Table) RenderCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	var b strings.Builder
	for i, h := range t.headers {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(esc(h))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// TableDoc is the machine-readable form of a Table — what RenderJSON
// writes and what consumers unmarshal. Round-tripping a table through it
// loses nothing: FromDoc rebuilds an identical table.
type TableDoc struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// Doc returns the table's machine-readable form.
func (t *Table) Doc() TableDoc {
	return TableDoc{Title: t.Title, Headers: t.Headers(), Rows: t.Rows(), Notes: t.Notes()}
}

// FromDoc rebuilds a table from its machine-readable form. Row arity is
// normalized through AddRow, exactly as if the rows were added live.
func FromDoc(d TableDoc) *Table {
	t := NewTable(d.Title, d.Headers...)
	for _, row := range d.Rows {
		t.AddRow(row...)
	}
	for _, n := range d.Notes {
		t.AddNote("%s", n)
	}
	return t
}

// RenderJSON writes the table as a JSON object (title, headers, rows,
// notes) so bench trajectories are machine-readable.
func (t *Table) RenderJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t.Doc())
}

// F formats a float with 2 decimal places for table cells.
func F(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// F1 formats a float with 1 decimal place.
func F1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// F4 formats a float with 4 decimal places (probabilities).
func F4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// I formats an integer cell.
func I(v int) string { return strconv.Itoa(v) }

// I64 formats an int64 cell.
func I64(v int64) string { return strconv.FormatInt(v, 10) }

// U64 formats a uint64 cell.
func U64(v uint64) string { return strconv.FormatUint(v, 10) }

// Bytes renders a byte count in human units (KB/MB/GB, powers of 1000 to
// match how the paper quotes ledger sizes).
func Bytes(n float64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2f GB", n/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2f MB", n/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.2f KB", n/1e3)
	default:
		return fmt.Sprintf("%.0f B", n)
	}
}

// Pct renders a fraction as a percentage.
func Pct(frac float64) string { return fmt.Sprintf("%.2f%%", 100*frac) }

// Dur renders a duration with millisecond precision.
func Dur(d time.Duration) string { return d.Round(time.Millisecond).String() }

// X renders a multiplier cell, e.g. "3.42x" — used by the runner's
// wall-clock/speedup reporting.
func X(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) + "x" }

// Speedup returns how many times faster cur is than base (base/cur), or 0
// when cur is not positive.
func Speedup(base, cur time.Duration) float64 {
	if cur <= 0 {
		return 0
	}
	return float64(base) / float64(cur)
}
