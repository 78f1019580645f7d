// Package stats provides the statistics toolkit behind the paper's
// distribution figures: summaries, histograms, Laplace and Gaussian fits,
// and Kolmogorov–Smirnov distances. Figure 10's observation — that FedSZ's
// decompression error is approximately Laplacian — is reproduced by fitting
// both families to the error vector and comparing KS distances.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds basic moments of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes a Summary (zero value for empty input).
func Summarize(data []float32) Summary {
	if len(data) == 0 {
		return Summary{}
	}
	s := Summary{N: len(data), Min: float64(data[0]), Max: float64(data[0])}
	var sum, sq float64
	for _, v := range data {
		f := float64(v)
		sum += f
		sq += f * f
		if f < s.Min {
			s.Min = f
		}
		if f > s.Max {
			s.Max = f
		}
	}
	s.Mean = sum / float64(s.N)
	variance := sq/float64(s.N) - s.Mean*s.Mean
	if variance < 0 {
		variance = 0
	}
	s.Std = math.Sqrt(variance)
	return s
}

// Histogram is a fixed-bin density estimate.
type Histogram struct {
	Counts []int
}

// NewHistogram bins data into `bins` equal-width buckets over [lo, hi];
// out-of-range samples clamp to the edge bins.
func NewHistogram(data []float32, lo, hi float64, bins int) *Histogram {
	if bins < 1 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram spec [%g,%g)/%d", lo, hi, bins))
	}
	h := &Histogram{Counts: make([]int, bins)}
	width := (hi - lo) / float64(bins)
	for _, v := range data {
		idx := int((float64(v) - lo) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= bins {
			idx = bins - 1
		}
		h.Counts[idx]++
	}
	return h
}

// LaplaceFit is the maximum-likelihood Laplace(μ, b): μ = median,
// b = mean |x − μ|.
type LaplaceFit struct {
	Mu, B float64
}

// FitLaplace estimates the parameters.
func FitLaplace(data []float32) LaplaceFit {
	if len(data) == 0 {
		return LaplaceFit{}
	}
	sorted := make([]float64, len(data))
	for i, v := range data {
		sorted[i] = float64(v)
	}
	sort.Float64s(sorted)
	mu := median(sorted)
	var sum float64
	for _, v := range sorted {
		sum += math.Abs(v - mu)
	}
	b := sum / float64(len(sorted))
	if b == 0 {
		b = math.SmallestNonzeroFloat64
	}
	return LaplaceFit{Mu: mu, B: b}
}

// CDF evaluates the Laplace cumulative distribution.
func (f LaplaceFit) CDF(x float64) float64 {
	if x < f.Mu {
		return 0.5 * math.Exp((x-f.Mu)/f.B)
	}
	return 1 - 0.5*math.Exp(-(x-f.Mu)/f.B)
}

// GaussianFit is the ML Gaussian (mean, std).
type GaussianFit struct {
	Mu, Sigma float64
}

// FitGaussian estimates the parameters.
func FitGaussian(data []float32) GaussianFit {
	s := Summarize(data)
	sigma := s.Std
	if sigma == 0 {
		sigma = math.SmallestNonzeroFloat64
	}
	return GaussianFit{Mu: s.Mean, Sigma: sigma}
}

// CDF evaluates the Gaussian cumulative distribution.
func (f GaussianFit) CDF(x float64) float64 {
	return 0.5 * (1 + math.Erf((x-f.Mu)/(f.Sigma*math.Sqrt2)))
}

// KSDistance computes the Kolmogorov–Smirnov statistic between the
// empirical distribution of data and a model CDF.
func KSDistance(data []float32, cdf func(float64) float64) float64 {
	n := len(data)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	for i, v := range data {
		sorted[i] = float64(v)
	}
	sort.Float64s(sorted)
	var d float64
	for i, x := range sorted {
		c := cdf(x)
		lo := float64(i) / float64(n)
		hi := float64(i+1) / float64(n)
		d = math.Max(d, math.Max(math.Abs(c-lo), math.Abs(c-hi)))
	}
	return d
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation.
func Quantile(data []float32, q float64) float64 {
	if len(data) == 0 {
		return 0
	}
	sorted := make([]float64, len(data))
	for i, v := range data {
		sorted[i] = float64(v)
	}
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Errors returns the element-wise difference recon − orig, the vector the
// DP analysis (Fig. 10) studies.
func Errors(orig, recon []float32) []float32 {
	if len(orig) != len(recon) {
		panic(fmt.Sprintf("stats: length mismatch %d != %d", len(orig), len(recon)))
	}
	out := make([]float32, len(orig))
	for i := range orig {
		out[i] = recon[i] - orig[i]
	}
	return out
}
