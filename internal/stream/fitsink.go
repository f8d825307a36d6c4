package stream

// FitSink: per-window model fitting inside the pipeline. Any fitter
// registered in the model layer runs against the selected quantity's
// histogram of every completed window, in window order, while the
// pipeline streams — fitting a million-window trace needs no more
// memory than the fits themselves.

import (
	"errors"
	"fmt"

	"hybridplaw/internal/model"
)

// WindowFits holds one window's fits, parallel to the fitter names the
// sink was built with.
type WindowFits struct {
	// T is the window index.
	T int
	// Results[i] is the fit of fitter i; meaningful only when Errs[i] is
	// nil.
	Results []model.FitResult
	// Errs[i] records fitter i's failure on this window (thin resampled
	// tails are legitimate per-window outcomes, not pipeline errors).
	Errs []error
}

// FitSink is a Sink running registered model fitters on one quantity of
// every window.
type FitSink struct {
	q       Quantity
	reg     *model.Registry
	fitters []string
	// Windows collects the per-window fits in window order.
	Windows []WindowFits
}

// NewFitSink returns a sink fitting the named fitters (all registered,
// in registry order, when none are given) to the quantity's per-window
// histograms. Unknown names fail immediately.
func NewFitSink(q Quantity, reg *model.Registry, fitters ...string) (*FitSink, error) {
	if q < 0 || int(q) >= NumQuantities {
		return nil, fmt.Errorf("stream: invalid quantity %d", int(q))
	}
	if reg == nil {
		return nil, errors.New("stream: nil model registry")
	}
	if len(fitters) == 0 {
		fitters = reg.Names()
	}
	for _, name := range fitters {
		if _, ok := reg.Lookup(name); !ok {
			return nil, fmt.Errorf("stream: unknown fitter %q (have: %v)", name, reg.Names())
		}
	}
	return &FitSink{q: q, reg: reg, fitters: append([]string(nil), fitters...)}, nil
}

// Fitters returns the resolved fitter names, in fit order.
func (s *FitSink) Fitters() []string { return append([]string(nil), s.fitters...) }

// ConsumeWindow implements Sink.
func (s *FitSink) ConsumeWindow(res *WindowResult) error {
	h := res.Hists[s.q]
	if h == nil {
		return fmt.Errorf("stream: window %d has no %v histogram (not in the run's read set)", res.T, s.q)
	}
	results, errs, err := s.reg.FitAll(h, s.fitters...)
	if err != nil {
		return fmt.Errorf("stream: window %d: %w", res.T, err)
	}
	s.Windows = append(s.Windows, WindowFits{T: res.T, Results: results, Errs: errs})
	return nil
}

// Reads implements DeclaredSink: the fitted quantity's histogram.
func (s *FitSink) Reads() ReadSet { return ReadHists(s.q) }

// Fit returns fitter name's fit of window index t, or an error when the
// fit failed or the window/fitter is unknown.
func (s *FitSink) Fit(t int, name string) (model.FitResult, error) {
	for _, w := range s.Windows {
		if w.T != t {
			continue
		}
		for i, fn := range s.fitters {
			if fn != name {
				continue
			}
			if w.Errs[i] != nil {
				return model.FitResult{}, w.Errs[i]
			}
			return w.Results[i], nil
		}
		return model.FitResult{}, fmt.Errorf("stream: fitter %q not in sink", name)
	}
	return model.FitResult{}, fmt.Errorf("stream: no fits for window %d", t)
}

// Best returns the window's AIC winner among the successful,
// comparable fits. (The window histogram is not retained, so full
// model.Select with Vuong tests needs the caller to pair FitSink with
// its own histogram sink; AIC ranking needs only the recorded fits.)
func (w WindowFits) Best() (model.FitResult, bool) {
	best, found := model.FitResult{}, false
	for i, r := range w.Results {
		if w.Errs[i] != nil || !r.Comparable() {
			continue
		}
		if !found || r.AIC < best.AIC {
			best, found = r, true
		}
	}
	return best, found
}
