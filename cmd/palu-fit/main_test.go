package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// powerlawCSV renders a synthetic power-law-ish histogram as CSV input,
// with deliberate blank lines and trailing whitespace.
func powerlawCSV() string {
	var b strings.Builder
	b.WriteString("degree,count\n\n")
	for d := 1; d <= 400; d++ {
		c := int(2e5 * math.Pow(float64(d), -2.2))
		if c == 0 {
			continue
		}
		fmt.Fprintf(&b, "%d,%d \n", d, c)
	}
	b.WriteString("\n")
	return b.String()
}

func TestRunTextOutput(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-models", "zm-mle,plaw"},
		strings.NewReader(powerlawCSV()), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"observations:", "zm-mle", "plaw", "selected:"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-json", "-models", "plaw,zm-mle"},
		strings.NewReader(powerlawCSV()), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	var parsed struct {
		Observation struct {
			Observations int64 `json:"observations"`
			DMax         int   `json:"dmax"`
		} `json:"observation"`
		Winner string `json:"winner"`
		Models []struct {
			Fitter string             `json:"fitter"`
			Params map[string]float64 `json:"params"`
			AIC    *float64           `json:"aic"`
		} `json:"models"`
	}
	if err := json.Unmarshal([]byte(out.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if parsed.Winner == "" || len(parsed.Models) != 2 {
		t.Errorf("winner=%q models=%d", parsed.Winner, len(parsed.Models))
	}
	if parsed.Observation.Observations == 0 || parsed.Observation.DMax < 100 {
		t.Errorf("observation block: %+v", parsed.Observation)
	}
	for _, m := range parsed.Models {
		if m.AIC == nil || len(m.Params) == 0 {
			t.Errorf("model %s missing stats: %+v", m.Fitter, m)
		}
	}
}

// TestRunFitFailureExitsNonzero: a requested fit that cannot run must
// produce a descriptive stderr line and a nonzero exit, while the table
// for the families that did fit still prints.
func TestRunFitFailureExitsNonzero(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-models", "palu,plaw"},
		strings.NewReader("1,100\n2,20\n"), &out, &errOut)
	if code == 0 {
		t.Fatal("expected nonzero exit when a requested fit fails")
	}
	if !strings.Contains(errOut.String(), "palu") {
		t.Errorf("stderr does not name the failed fitter:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "plaw") {
		t.Errorf("surviving fit missing from stdout:\n%s", out.String())
	}
}

func TestRunBadInputExitsNonzero(t *testing.T) {
	for _, c := range []struct{ in, line string }{
		{"1,5\nnot,a,row\n", "line 2"},
		{"2,x\n1,5\n", "line 1"},
	} {
		var out, errOut strings.Builder
		code := run(nil, strings.NewReader(c.in), &out, &errOut)
		if code == 0 {
			t.Fatalf("%q: expected nonzero exit on unparseable input", c.in)
		}
		if !strings.Contains(errOut.String(), c.line) {
			t.Errorf("%q: stderr does not locate the bad line (%s):\n%s", c.in, c.line, errOut.String())
		}
	}
}

func TestRunUnknownModelExitsNonzero(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-models", "nope"},
		strings.NewReader("1,5\n2,3\n"), &out, &errOut)
	if code == 0 {
		t.Fatal("expected nonzero exit for unknown fitter")
	}
	if !strings.Contains(errOut.String(), "nope") {
		t.Errorf("stderr does not name the unknown fitter:\n%s", errOut.String())
	}
}

func TestRunBootstrapIntervals(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-models", "zm", "-bootstrap", "12", "-level", "0.9"},
		strings.NewReader(powerlawCSV()), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "bootstrap (90% intervals):") ||
		!strings.Contains(out.String(), "zm (12 reps):") ||
		!strings.Contains(out.String(), "alpha in [") {
		t.Errorf("bootstrap section missing:\n%s", out.String())
	}

	var jsonOut, jsonErr strings.Builder
	code = run([]string{"-models", "zm", "-bootstrap", "12", "-json"},
		strings.NewReader(powerlawCSV()), &jsonOut, &jsonErr)
	if code != 0 {
		t.Fatalf("json exit %d, stderr:\n%s", code, jsonErr.String())
	}
	var parsed struct {
		Bootstrap struct {
			Level float64 `json:"level"`
			ZM    *struct {
				Reps  int        `json:"reps"`
				Alpha [2]float64 `json:"alpha"`
			} `json:"zm"`
		} `json:"bootstrap"`
	}
	if err := json.Unmarshal([]byte(jsonOut.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if parsed.Bootstrap.ZM == nil || parsed.Bootstrap.ZM.Reps == 0 ||
		parsed.Bootstrap.ZM.Alpha[0] >= parsed.Bootstrap.ZM.Alpha[1] {
		t.Errorf("bootstrap JSON block wrong: %+v", parsed.Bootstrap)
	}
}

func TestRunPlot(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-models", "plaw", "-plot"},
		strings.NewReader(powerlawCSV()), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "observed D(di)") {
		t.Errorf("plot legend missing:\n%s", out.String())
	}
}

func TestReadHistogram(t *testing.T) {
	in := "degree,count\n1,100\n2,40\n10,3\n"
	h, err := readHistogram(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 143 {
		t.Errorf("total = %d", h.Total())
	}
	if h.Count(2) != 40 || h.MaxDegree() != 10 {
		t.Error("counts wrong")
	}
}

func TestReadHistogramNoHeader(t *testing.T) {
	h, err := readHistogram(strings.NewReader("1,5\n3,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 7 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestReadHistogramBlankLines(t *testing.T) {
	for _, in := range []string{
		"degree,count\n\n1,5\n\n2,1\n",
		"\n\ndegree,count\n1,5\n2,1\n", // the header is the first non-blank line
	} {
		h, err := readHistogram(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if h.Total() != 6 {
			t.Errorf("%q: total = %d", in, h.Total())
		}
	}
}

func TestReadHistogramErrors(t *testing.T) {
	cases := []struct{ name, body string }{
		{"empty", ""},
		{"header only", "degree,count\n"},
		{"wrong fields", "1,2,3\n"},
		{"garbage mid-file", "1,5\nx,y\n"},
		{"second header", "degree,count\ndegree,count\n1,5\n"},
		{"negative count", "1,-5\n"},
		{"zero degree", "0,5\n"},
	}
	for _, c := range cases {
		if _, err := readHistogram(strings.NewReader(c.body)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
