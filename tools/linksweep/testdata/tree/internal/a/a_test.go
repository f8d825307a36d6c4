package a

import (
	"testing"

	"fixture/internal/support"
)

func TestA(t *testing.T) { support.Helper() }
