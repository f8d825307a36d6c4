package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Snapshot is a deterministic point-in-time rendering of a registry:
// metrics sorted by name, each carrying exactly the fields of its type.
// It is the unit both exporters consume.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Metric is one instrument's snapshot.
type Metric struct {
	// Name is the registered name (palu_<layer>_<name>).
	Name string `json:"name"`
	// Type is "counter", "gauge" or "histogram".
	Type string `json:"type"`
	// Help is the registration help text.
	Help string `json:"help,omitempty"`
	// Value is the counter or gauge value (absent for histograms).
	Value int64 `json:"value"`
	// Count and Sum summarize a histogram's observations.
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Buckets are a histogram's cumulative buckets in ascending bound
	// order; the last bucket's bound is math.MaxInt64 (+Inf).
	Buckets []Bucket `json:"buckets"`
}

// MarshalJSON encodes exactly the fields of m's type, zeros included: a
// counter or gauge always carries value, and a histogram always carries
// count, sum and buckets and never value. A reader of a zero counter
// gets 0, not a missing key.
func (m Metric) MarshalJSON() ([]byte, error) {
	if m.Type == "histogram" {
		return json.Marshal(struct {
			Name    string   `json:"name"`
			Type    string   `json:"type"`
			Help    string   `json:"help,omitempty"`
			Count   int64    `json:"count"`
			Sum     int64    `json:"sum"`
			Buckets []Bucket `json:"buckets"`
		}{m.Name, m.Type, m.Help, m.Count, m.Sum, m.Buckets})
	}
	return json.Marshal(struct {
		Name  string `json:"name"`
		Type  string `json:"type"`
		Help  string `json:"help,omitempty"`
		Value int64  `json:"value"`
	}{m.Name, m.Type, m.Help, m.Value})
}

// Bucket is one cumulative histogram bucket: the count of observations
// <= UpperBound.
type Bucket struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// WriteJSON renders the snapshot as indented JSON with a trailing
// newline. The rendering is deterministic: metric order is the
// snapshot's sorted order and encoding/json field order is fixed.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteText renders the snapshot in the Prometheus text exposition
// style: # HELP/# TYPE preambles, cumulative le-labeled histogram
// buckets plus _sum and _count series. Values are integers (timers are
// nanoseconds, flagged by the _ns name suffix) — close enough to the
// convention for standard scrapers and for eyeballs, with no float
// formatting nondeterminism.
func (s Snapshot) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, m := range s.Metrics {
		if m.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", m.Name, m.Help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.Name, m.Type)
		switch m.Type {
		case "histogram":
			for _, b := range m.Buckets {
				if b.UpperBound == math.MaxInt64 {
					fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", m.Name, b.Count)
				} else {
					fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", m.Name, b.UpperBound, b.Count)
				}
			}
			fmt.Fprintf(bw, "%s_sum %d\n", m.Name, m.Sum)
			fmt.Fprintf(bw, "%s_count %d\n", m.Name, m.Count)
		default:
			fmt.Fprintf(bw, "%s %d\n", m.Name, m.Value)
		}
	}
	return bw.Flush()
}

// DumpJSON writes the registry's JSON snapshot to path, with "-"
// selecting stdout: the implementation behind every CLI -metrics flag.
func DumpJSON(reg *Registry, path string) error {
	snap := reg.Snapshot()
	if path == "-" {
		return snap.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
