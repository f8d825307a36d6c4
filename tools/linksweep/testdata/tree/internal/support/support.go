// Package support is imported by tests alone: test support.
package support

import "fixture/internal/deep"

func Helper() { deep.Helper() }
