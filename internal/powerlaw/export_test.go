package powerlaw

import (
	"testing"

	"hybridplaw/internal/hist"
)

// CheckScanWithinTolerance is checkWithinTolerance at the default scan
// cap and xmin = 1, for the suite-input pins of the external test
// package; it returns the check's summary line.
func CheckScanWithinTolerance(t *testing.T, name string, h *hist.Histogram) string {
	t.Helper()
	return checkWithinTolerance(t, name, h, []int{0}, []int{1}).String()
}
