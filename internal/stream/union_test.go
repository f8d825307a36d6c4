package stream

import "testing"

func TestUnionConfigs(t *testing.T) {
	sm := NewMetrics(nil)
	u, err := UnionConfigs(
		PipelineConfig{NV: 1000, MaxWindows: 2, KeepMatrices: true},
		PipelineConfig{NV: 1000, MaxWindows: 2, KeepPartials: true, Metrics: sm},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !u.KeepMatrices || !u.KeepPartials {
		t.Errorf("retention flags not OR-ed: %+v", u)
	}
	if u.Metrics != sm {
		t.Error("first non-nil metrics bundle not kept")
	}

	if _, err := UnionConfigs(
		PipelineConfig{NV: 1000, MaxWindows: 2},
		PipelineConfig{NV: 2000, MaxWindows: 1},
	); err == nil {
		t.Error("geometry mismatch accepted")
	}
	if _, err := UnionConfigs(); err == nil {
		t.Error("empty union accepted")
	}
}
