// Package stats provides the statistical machinery used by the
// characterization harness: summary statistics, interpolated percentiles up
// to the p99.99 tails reported in the paper, ordinary least-squares
// regression with r² (for the fault↔runtime linearity analysis), and
// Welch's t-test (for the significance claims at higher memory capacities).
//
// The explicit float64 conversions around products in this file keep each
// product from fusing with its sum into one FMA, which rounds once, on
// architectures that have it, so every statistic is the same on every
// architecture (TestNoFusedMultiplyAdd).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CV returns the coefficient of variation (σ/μ), or 0 when the mean is 0.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Min returns the smallest element; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. xs need not be sorted. It panics on
// an empty slice or out-of-range p.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// PercentilesSorted computes several percentiles from one sort. xs is
// sorted in place.
func PercentilesSorted(xs []float64, ps []float64) []float64 {
	if len(xs) == 0 {
		panic("stats: PercentilesSorted of empty slice")
	}
	sort.Float64s(xs)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = percentileSorted(xs, p)
	}
	return out
}

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	rank := float64(p / 100 * float64(len(s)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// Summary is a five-number summary plus mean and deviation, matching the
// box-and-whisker presentation of the paper's fault-distribution figures.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Summarize computes a Summary of xs. It panics on an empty slice.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		N:      len(s),
		Mean:   Mean(s),
		StdDev: StdDev(s),
		Min:    s[0],
		Q1:     percentileSorted(s, 25),
		Median: percentileSorted(s, 50),
		Q3:     percentileSorted(s, 75),
		Max:    s[len(s)-1],
	}
}

// IQR returns the interquartile range of the summary.
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// Spread returns max/min, the paper's "factor between fastest and slowest
// executions". Returns +Inf when min is zero.
func (s Summary) Spread() float64 {
	if s.Min == 0 {
		return math.Inf(1)
	}
	return s.Max / s.Min
}

// Regression holds an ordinary least-squares fit y = Slope*x + Intercept.
type Regression struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// LinearFit fits y against x by OLS and reports the coefficient of
// determination. Slices must be the same non-zero length.
func LinearFit(x, y []float64) Regression {
	if len(x) != len(y) || len(x) == 0 {
		panic("stats: LinearFit requires equal, non-empty slices")
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += float64(dx * dx)
		sxy += float64(dx * dy)
		syy += float64(dy * dy)
	}
	r := Regression{N: len(x)}
	if sxx == 0 {
		r.Intercept = my
		return r
	}
	r.Slope = sxy / sxx
	r.Intercept = my - float64(r.Slope*mx)
	if syy == 0 {
		r.R2 = 1
		return r
	}
	r.R2 = (sxy * sxy) / (sxx * syy)
	return r
}

// TTest holds the result of Welch's unequal-variance t-test.
type TTest struct {
	T  float64 // t statistic
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchTTest performs Welch's two-sample t-test on a and b and returns the
// two-sided p-value. Each sample needs at least two observations.
func WelchTTest(a, b []float64) TTest {
	if len(a) < 2 || len(b) < 2 {
		panic("stats: WelchTTest requires at least two observations per sample")
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	sa, sb := va/na, vb/nb
	se := math.Sqrt(sa + sb)
	if se == 0 {
		// Identical constant samples: no evidence of difference.
		if ma == mb {
			return TTest{T: 0, DF: na + nb - 2, P: 1}
		}
		return TTest{T: math.Inf(1), DF: na + nb - 2, P: 0}
	}
	t := (ma - mb) / se
	df := (sa + sb) * (sa + sb) / (sa*sa/(na-1) + sb*sb/(nb-1))
	p := 2 * studentTCDFUpper(math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return TTest{T: t, DF: df, P: p}
}

// studentTCDFUpper returns P(T > t) for Student's t with df degrees of
// freedom, via the regularized incomplete beta function.
func studentTCDFUpper(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + float64(t*t))
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes style).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(float64(math.Log(x)*a) + float64(math.Log(1-x)*b) + lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betaCF evaluates the continued fraction for the incomplete beta function.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Normalize returns xs scaled so that base maps to 1.0. Panics if base is 0.
func Normalize(xs []float64, base float64) []float64 {
	if base == 0 {
		panic("stats: Normalize by zero base")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}

// Histogram bins xs into n equal-width buckets over [min, max] and returns
// the bucket counts and edges. Useful for the ASCII visualizations.
func Histogram(xs []float64, n int) (counts []int, edges []float64) {
	if n <= 0 {
		panic("stats: Histogram needs at least one bucket")
	}
	if len(xs) == 0 {
		return make([]int, n), make([]float64, n+1)
	}
	lo, hi := Min(xs), Max(xs)
	if hi == lo {
		hi = lo + 1
	}
	counts = make([]int, n)
	edges = make([]float64, n+1)
	w := (hi - lo) / float64(n)
	for i := range edges {
		edges[i] = lo + float64(w*float64(i))
	}
	for _, x := range xs {
		b := int((x - lo) / w)
		if b >= n {
			b = n - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
	return counts, edges
}
