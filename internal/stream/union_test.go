package stream

import "testing"

func TestUnionConfigs(t *testing.T) {
	sm := NewMetrics(nil)
	u, err := UnionConfigs(
		PipelineConfig{NV: 1000, MaxWindows: 2, Workers: 2, KeepMatrices: true},
		PipelineConfig{NV: 1000, MaxWindows: 2, Workers: 4, KeepPartials: true, Metrics: sm},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !u.KeepMatrices || !u.KeepPartials {
		t.Errorf("retention flags not OR-ed: %+v", u)
	}
	if u.Workers != 4 {
		t.Errorf("worker width not max-ed: workers=%d", u.Workers)
	}
	if u.Metrics != sm {
		t.Error("first non-nil metrics bundle not kept")
	}

	// A non-positive width request means "widest default" and dominates.
	u, err = UnionConfigs(
		PipelineConfig{NV: 1000, MaxWindows: 2, Workers: 4},
		PipelineConfig{NV: 1000, MaxWindows: 2, Workers: 0},
	)
	if err != nil || u.Workers != 0 {
		t.Errorf("default width did not dominate: workers=%d err=%v", u.Workers, err)
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
