package model

import (
	"testing"

	"hybridplaw/internal/hist"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/xrand"
)

// benchHistogram builds the shared benchmark input once.
func benchHistogram(b *testing.B) *hist.Histogram {
	b.Helper()
	params, err := palu.FromWeights(1, 3, 2, 1.5, 2.2)
	if err != nil {
		b.Fatal(err)
	}
	h, err := palu.FastObservedHistogram(params, 200000, 0.7, xrand.New(42))
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkFit measures each registered fitter on a 200k-observation
// PALU histogram (the CI fit-performance record). Fitters that run
// stats.MinimizeBox also report its oracle calls per fit.
func BenchmarkFit(b *testing.B) {
	h := benchHistogram(b)
	reg := Default()
	for _, name := range reg.Names() {
		f, _ := reg.Lookup(name)
		b.Run(name, func(b *testing.B) {
			var evals float64
			for i := 0; i < b.N; i++ {
				res, err := f.Fit(h)
				if err != nil {
					b.Fatal(err)
				}
				evals += res.Diag["evals"]
			}
			if evals > 0 {
				b.ReportMetric(evals/float64(b.N), "evals/op")
			}
		})
	}
}

// BenchmarkSelect measures the full fit-all-and-select path.
func BenchmarkSelect(b *testing.B) {
	h := benchHistogram(b)
	reg := Default()
	for i := 0; i < b.N; i++ {
		results, errs, err := reg.FitAll(h)
		if err != nil {
			b.Fatal(err)
		}
		var ok []FitResult
		for j, r := range results {
			if errs[j] == nil {
				ok = append(ok, r)
			}
		}
		if _, err := Select(h, ok); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracle times one value-only evaluation of each likelihood
// family's objective (its model's LogLik, as the solver called it per
// stencil point) against one oracle call (value, gradient and Hessian)
// on BenchmarkFit's histogram, at the family's first start; truncplaw
// also on its λ = 0 face, where its normalizer is summed by Hurwitz
// zeta differences and its λ-derivatives by the head and tail.
func BenchmarkOracle(b *testing.B) {
	h := benchHistogram(b)
	for _, c := range []struct {
		name   string
		fitter Fitter
		face   bool
	}{
		{"zm-mle", ZMMLEFitter{}, false},
		{"lognormal", LognormalFitter{}, false},
		{"truncplaw", TruncPowerLawFitter{}, false},
		{"truncplaw-face", TruncPowerLawFitter{}, true},
	} {
		p, _ := problemOf(c.fitter, h)
		x := p.starts[0]
		if c.face {
			x[1] = 0
		}
		b.Run(c.name+"/value", func(b *testing.B) {
			for b.Loop() {
				if _, err := p.model(x).LogLik(h); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/oracle", func(b *testing.B) {
			for b.Loop() {
				p.oracle(x)
			}
		})
	}
}
