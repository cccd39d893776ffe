package telemetry

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// goldenSnapshot is the fixed snapshot behind the golden file: one of
// every metric kind with hand-picked values, so the golden body pins
// HELP/TYPE lines, counter/gauge formatting, and cumulative histogram
// expansion all at once.
func goldenSnapshot() []MetricSnapshot {
	return []MetricSnapshot{
		{Name: "portsim_cells_done_total", Help: "Experiment cells completed.", Kind: "counter", IntValue: 37},
		{Name: "portsim_sim_cycles_per_second", Help: "Simulated cycles per wall second.", Kind: "gauge", Value: 1.25e6},
		{Name: "portsim_cells_planned", Help: "Cells the suite will submit.", Kind: "gauge", Value: 126},
		{
			Name: "portsim_port_utilization", Help: "Mean fraction of port slots granted per cycle.", Kind: "histogram",
			// Samples 0.1, 0.3, 0.3, 0.6 and 0.9; Sum is their float64
			// sum, added in that order.
			Buckets: []BucketSnapshot{{0.25, 1}, {0.5, 3}, {0.75, 4}, {math.Inf(1), 5}},
			Sum:     2.1999999999999997,
			Count:   5,
		},
	}
}

// TestPrometheusGolden pins the /metrics body byte-for-byte. Regenerate
// with `go test ./internal/telemetry -run Golden -update` after a
// deliberate format change.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Prometheus body drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestPrometheusHistogramCumulative spells out the histogram contract
// separately from the golden bytes: buckets are cumulative, end at +Inf
// with the total count, and _count matches the +Inf bucket.
func TestPrometheusHistogramCumulative(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	wantLines := []string{
		`portsim_port_utilization_bucket{le="0.25"} 1`,
		`portsim_port_utilization_bucket{le="0.5"} 3`,
		`portsim_port_utilization_bucket{le="0.75"} 4`,
		`portsim_port_utilization_bucket{le="+Inf"} 5`,
		`portsim_port_utilization_count 5`,
		`# TYPE portsim_port_utilization histogram`,
		`# HELP portsim_cells_done_total Experiment cells completed.`,
		`# TYPE portsim_cells_done_total counter`,
		`# TYPE portsim_sim_cycles_per_second gauge`,
	}
	for _, line := range wantLines {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("missing line %q in body:\n%s", line, body)
		}
	}
	// Cumulative counts must never decrease down the bucket list.
	var last uint64
	for _, m := range goldenSnapshot() {
		if m.Kind != "histogram" {
			continue
		}
		last = 0
		for i, b := range m.Buckets {
			if b.Cumulative < last {
				t.Errorf("%s bucket %d regressed: %d after %d", m.Name, i, b.Cumulative, last)
			}
			last = b.Cumulative
		}
		if m.Buckets[len(m.Buckets)-1].Cumulative != m.Count {
			t.Errorf("%s +Inf bucket %d != count %d", m.Name, m.Buckets[len(m.Buckets)-1].Cumulative, m.Count)
		}
	}
}

func TestFormatFloatSpecials(t *testing.T) {
	if got := formatFloat(1.5); got != "1.5" {
		t.Errorf("formatFloat(1.5) = %q", got)
	}
	if got := formatFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("formatFloat(+Inf) = %q", got)
	}
	if got := formatFloat(math.Inf(-1)); got != "-Inf" {
		t.Errorf("formatFloat(-Inf) = %q", got)
	}
	if got := formatFloat(math.NaN()); got != "NaN" {
		t.Errorf("formatFloat(NaN) = %q", got)
	}
}
