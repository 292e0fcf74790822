package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail estimate resting on fewer samples is noise.
const minTail = 10

// supportedQuantile applies the percentile rule: it returns the highest
// quantile at or below q that has at least minTail of n samples beyond
// it. It fails when n is too small to support even the median.
func supportedQuantile(n int, q float64) (float64, error) {
	if n < 2*minTail {
		return 0, fmt.Errorf("%d samples cannot support a tail percentile (need %d)", n, 2*minTail)
	}
	return math.Min(q, float64(n-minTail)/float64(n)), nil
}

// quantile returns the q-quantile of xs by the Harrell-Davis
// estimator: a weighted average of every order statistic, the i-th of n
// weighted by the Beta((n+1)q, (n+1)(1-q)) probability of ((i-1)/n, i/n].
// Unlike a single order statistic it moves smoothly with the data, so a
// sparse stretch of samples around the quantile does not make it jump
// from run to run. q = 0 and q = 1 give the minimum and maximum. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case q <= 0:
		return s[0]
	case q >= 1:
		return s[n-1]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum, prev float64
	for i, x := range s {
		cdf := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cdf - prev) * x
		prev = cdf
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (modified Lentz's method) on the
// side of the distribution's mean where that converges fast.
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the continued fraction of betaInc.
func betaFrac(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+even*d)
		c = clamp(1 + even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+odd*d)
		c = clamp(1 + odd/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}

// median is quantile 0.5.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is quantile under the percentile rule; it also returns
// the quantile actually used, so reports can state it.
func tailQuantile(xs []float64, q float64) (float64, float64, error) {
	eff, err := supportedQuantile(len(xs), q)
	if err != nil {
		return 0, 0, err
	}
	return quantile(xs, eff), eff, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newRand returns the generator for one named stream of a seed: job
// orders, schedules and variants each draw from their own stream, so
// adding draws to one never shifts another.
func newRand(seed int64, stream string) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
