package metrics

import "math"

// trackedQuantiles are the quantiles a collapsed histogram estimates —
// every quantile the experiment tables actually render (p50, p95, p99)
// plus the p999 tail column.
var trackedQuantiles = []float64{0.5, 0.95, 0.99, 0.999}

// estimate is Quantile on a collapsed histogram.
func (h *Histogram) estimate(p float64) float64 {
	if p <= 0 {
		return h.min
	}
	if p >= 1 {
		return h.max
	}
	best := 0
	for i, q := range trackedQuantiles {
		if math.Abs(q-p) < math.Abs(trackedQuantiles[best]-p) {
			best = i
		}
	}
	v := h.est[best].value()
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// p2est is one P² marker set: five heights q tracking the quantile p,
// with actual positions n and desired positions np.
type p2est struct {
	p  float64
	q  [5]float64
	n  [5]float64
	np [5]float64
}

// newP2 warm-starts the markers from a sorted sample set (len >= 5):
// heights are the samples at the five canonical ranks, de-collided so
// positions stay strictly increasing.
func newP2(p float64, sorted []float64) p2est {
	m := len(sorted)
	e := p2est{p: p}
	d := [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	idx := [5]int{}
	for i := 0; i < 5; i++ {
		idx[i] = int(math.Round(d[i] * float64(m-1)))
	}
	for i := 1; i < 5; i++ {
		if idx[i] <= idx[i-1] {
			idx[i] = idx[i-1] + 1
		}
	}
	for i := 4; i >= 0; i-- {
		if idx[i] > m-5+i {
			idx[i] = m - 5 + i
		}
	}
	for i := 0; i < 5; i++ {
		e.q[i] = sorted[idx[i]]
		e.n[i] = float64(idx[i] + 1)
		e.np[i] = 1 + d[i]*float64(m-1)
	}
	return e
}

// value returns the current estimate: the middle marker's height.
func (e *p2est) value() float64 { return e.q[2] }

// add runs one P² update step.
func (e *p2est) add(v float64) {
	var k int
	switch {
	case v < e.q[0]:
		e.q[0] = v
		k = 0
	case v >= e.q[4]:
		e.q[4] = v
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if v < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	d := [5]float64{0, e.p / 2, e.p, (1 + e.p) / 2, 1}
	for i := range e.np {
		e.np[i] += d[i]
	}
	for i := 1; i <= 3; i++ {
		diff := e.np[i] - e.n[i]
		if (diff >= 1 && e.n[i+1]-e.n[i] > 1) || (diff <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1.0
			if diff < 0 {
				s = -1
			}
			if qp := e.parabolic(i, s); e.q[i-1] < qp && qp < e.q[i+1] {
				e.q[i] = qp
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction.
func (e *p2est) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+s)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-s)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

// linear is the fallback height prediction when the parabola would
// break marker monotonicity.
func (e *p2est) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.n[j]-e.n[i])
}
