package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// goldenRegistry builds a registry with one instrument of each type and
// fixed observations, so both exporters have a byte-exact expectation.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("palu_g_events_total", "events seen").Add(42)
	r.Gauge("palu_g_depth", "queue depth").Set(-3)
	h := r.Histogram("palu_g_wait_ns", "wait time", []int64{10, 100})
	h.Observe(5)
	h.Observe(10)
	h.Observe(99)
	h.Observe(5000)
	return r
}

const goldenJSON = `{
  "metrics": [
    {
      "name": "palu_g_depth",
      "type": "gauge",
      "help": "queue depth",
      "value": -3
    },
    {
      "name": "palu_g_events_total",
      "type": "counter",
      "help": "events seen",
      "value": 42
    },
    {
      "name": "palu_g_wait_ns",
      "type": "histogram",
      "help": "wait time",
      "count": 4,
      "sum": 5114,
      "buckets": [
        {
          "le": 10,
          "count": 2
        },
        {
          "le": 100,
          "count": 3
        },
        {
          "le": 9223372036854775807,
          "count": 4
        }
      ]
    }
  ]
}
`

const goldenText = `# HELP palu_g_depth queue depth
# TYPE palu_g_depth gauge
palu_g_depth -3
# HELP palu_g_events_total events seen
# TYPE palu_g_events_total counter
palu_g_events_total 42
# HELP palu_g_wait_ns wait time
# TYPE palu_g_wait_ns histogram
palu_g_wait_ns_bucket{le="10"} 2
palu_g_wait_ns_bucket{le="100"} 3
palu_g_wait_ns_bucket{le="+Inf"} 4
palu_g_wait_ns_sum 5114
palu_g_wait_ns_count 4
`

func TestWriteJSONGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().Snapshot().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != goldenJSON {
		t.Errorf("JSON export mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), goldenJSON)
	}
}

// TestWriteJSONZeroValues pins that zeros survive JSON export: a zero
// counter and a zero gauge still carry "value", and an empty histogram
// carries "count", "sum" and "buckets" but no "value".
func TestWriteJSONZeroValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("palu_z_events_total", "")
	r.Gauge("palu_z_depth", "")
	r.Histogram("palu_z_wait_ns", "", []int64{10})
	var sb strings.Builder
	if err := r.Snapshot().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Metrics []map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"palu_z_depth":        {"name", "type", "value"},
		"palu_z_events_total": {"name", "type", "value"},
		"palu_z_wait_ns":      {"buckets", "count", "name", "sum", "type"},
	}
	if len(decoded.Metrics) != len(want) {
		t.Fatalf("decoded %d metrics, want %d:\n%s", len(decoded.Metrics), len(want), sb.String())
	}
	for _, m := range decoded.Metrics {
		var name string
		if err := json.Unmarshal(m["name"], &name); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, want[name]) {
			t.Errorf("%s: keys %v, want %v", name, keys, want[name])
		}
		for _, k := range []string{"value", "count", "sum"} {
			if v, ok := m[k]; ok && string(v) != "0" {
				t.Errorf("%s: %s = %s, want 0", name, k, v)
			}
		}
	}
}

func TestWriteTextGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenRegistry().Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != goldenText {
		t.Errorf("text export mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), goldenText)
	}
}

func TestSnapshotAccessors(t *testing.T) {
	snap := goldenRegistry().Snapshot()
	want := []string{"palu_g_depth", "palu_g_events_total", "palu_g_wait_ns"}
	got := snap.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
	if m, ok := snap.Get("palu_g_events_total"); !ok || m.Value != 42 {
		t.Fatalf("Get(counter) = %+v, %v", m, ok)
	}
	if _, ok := snap.Get("palu_missing"); ok {
		t.Fatal("Get of unknown metric should report !ok")
	}
}

func TestDumpJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := DumpJSON(goldenRegistry(), path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != goldenJSON {
		t.Errorf("DumpJSON file mismatch:\ngot:\n%s\nwant:\n%s", data, goldenJSON)
	}
}
