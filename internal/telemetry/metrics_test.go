package telemetry

import (
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"portsim/internal/cpustack"
)

// TestHistogramBucketing pins the histogram fold: cumulative counts and a
// +Inf bucket holding every sample.
func TestHistogramBucketing(t *testing.T) {
	m := histogram("h", "a histogram", []float64{1, 2, 4}, []float64{0.5, 1, 1.5, 3, 100})
	if m.Kind != "histogram" || m.Count != 5 {
		t.Errorf("kind %q count %d, want histogram 5", m.Kind, m.Count)
	}
	if want := 0.5 + 1 + 1.5 + 3 + 100; m.Sum != want {
		t.Errorf("sum = %v, want %v", m.Sum, want)
	}
	// Cumulative: <=1 holds 0.5 and 1; <=2 adds 1.5; <=4 adds 3; +Inf adds
	// 100.
	wantCum := []uint64{2, 3, 4, 5}
	if len(m.Buckets) != len(wantCum) {
		t.Fatalf("bucket count = %d, want %d", len(m.Buckets), len(wantCum))
	}
	for i, b := range m.Buckets {
		if b.Cumulative != wantCum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.Cumulative, wantCum[i])
		}
	}
	if !math.IsInf(m.Buckets[len(m.Buckets)-1].UpperBound, 1) {
		t.Error("last bucket bound is not +Inf")
	}
}

// TestHistogramRejectsBadBounds pins the histogram's bounds check: empty,
// repeated or descending bounds panic, and the campaign's three bound
// lists pass it.
func TestHistogramRejectsBadBounds(t *testing.T) {
	for i, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds case %d accepted", i)
				}
			}()
			histogram("h", "", bounds, nil)
		}()
	}
	for i, bounds := range [][]float64{wallBounds, utilBounds, rejectBounds} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("campaign bounds %d rejected: %v", i, r)
				}
			}()
			histogram("h", "", bounds, nil)
		}()
	}
}

// TestSnapshotIsRegistrationOrdered pins the /metrics series order: the
// campaign's own series in a fixed order, one counter per CPI bucket when
// accounting is on, then the gauges in the order NewCampaign was given
// them, each read at snapshot time.
func TestSnapshotIsRegistrationOrdered(t *testing.T) {
	v := 1.0
	gauges := []Gauge{
		{Name: "zz", Value: func() float64 { return v }},
		{Name: "aa", Value: func() float64 { return 7 }},
	}
	base := []string{
		"portsim_cells_planned", "portsim_cells_done_total", "portsim_cells_failed_total",
		"portsim_cells_memo_hits_total", "portsim_cells_store_hits_total",
		"portsim_sim_cycles_total", "portsim_sim_insts_total",
		"portsim_cell_wall_seconds", "portsim_port_utilization", "portsim_port_reject_rate",
		"portsim_sim_cycles_per_second", "portsim_allocs_per_1k_cycles",
	}
	names := func(snap []MetricSnapshot) []string {
		var out []string
		for _, m := range snap {
			out = append(out, m.Name)
		}
		return out
	}
	if got, want := names(NewCampaign(0, false, gauges).Metrics()), append(base, "zz", "aa"); !reflect.DeepEqual(got, want) {
		t.Errorf("without CPI accounting:\n got %v\nwant %v", got, want)
	}
	want := append([]string(nil), base...)
	for b := cpustack.Bucket(0); b < cpustack.NumBuckets; b++ {
		want = append(want, "portsim_cpi_"+b.MetricName()+"_cycles_total")
	}
	want = append(want, "zz", "aa")
	camp := NewCampaign(0, true, gauges)
	if got := names(camp.Metrics()); !reflect.DeepEqual(got, want) {
		t.Errorf("with CPI accounting:\n got %v\nwant %v", got, want)
	}
	v = 3
	snap := camp.Metrics()
	if zz, aa := snap[len(snap)-2], snap[len(snap)-1]; zz.Value != 3 || aa.Value != 7 || zz.Kind != "gauge" {
		t.Errorf("gauges read %v (%s) and %v, want 3 (gauge) and 7", zz.Value, zz.Kind, aa.Value)
	}
}

// TestWritePrometheusRejectsBadNames pins the metric-name check: a name
// outside [a-zA-Z_:][a-zA-Z0-9_:]*, or one already written, fails the
// exposition and with it the scrape, while every name a campaign renders
// passes.
func TestWritePrometheusRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "1abc", "has space", "has-dash"} {
		if err := WritePrometheus(io.Discard, []MetricSnapshot{gauge(name, "", 1)}); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
	if err := WritePrometheus(io.Discard, []MetricSnapshot{counter("dup", "", 1), gauge("dup", "", 2)}); err == nil {
		t.Error("duplicate name accepted")
	}
	camp := NewCampaign(1, true, []Gauge{{Name: "portsim_extra", Value: func() float64 { return 1 }}})
	if err := WritePrometheus(io.Discard, camp.Metrics()); err != nil {
		t.Errorf("campaign metrics rejected: %v", err)
	}

	srv, err := Serve("127.0.0.1:0", NewCampaign(0, false, []Gauge{{Name: "bad-name", Value: func() float64 { return 1 }}}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, body := get(t, "http://"+srv.Addr()+"/metrics"); code != http.StatusInternalServerError || !strings.Contains(body, "bad-name") {
		t.Errorf("/metrics with a malformed gauge name: status %d, body %q", code, body)
	}
}

// TestConcurrentUpdates exercises the record under the race detector the
// way a campaign does: workers starting and completing cells, a scraper
// rendering every surface.
func TestConcurrentUpdates(t *testing.T) {
	const workers, perWorker = 4, 250
	c := NewCampaign(workers*perWorker, true, nil)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				stack := cpustack.NewStack()
				c.CellStarted(CellStartSample{Machine: "m", Workload: "w", ConfigJSON: []byte("{}"), Stack: stack})
				stack.Charge(cpustack.Useful, 10)
				c.CellDone(CellSample{Machine: "m", Workload: "w", ConfigJSON: []byte("{}"),
					Cycles: 10, PortUtilization: float64(i%20) / 20, PortRejectRate: -1, CPIStack: stack.Snapshot()})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			c.Metrics()
			c.Status()
			c.Totals()
		}
	}()
	wg.Wait()
	<-done
	if got := c.Totals(); got.Cells != workers*perWorker || got.SimCycles != 10*workers*perWorker {
		t.Errorf("totals = %+v, want %d cells of 10 cycles", got, workers*perWorker)
	}
	for _, m := range c.Metrics() {
		if m.Name == "portsim_port_utilization" && m.Count != workers*perWorker {
			t.Errorf("utilization histogram count = %d, want %d", m.Count, workers*perWorker)
		}
	}
}

// TestSurfacesAgree feeds one campaign an ok cell, a memo hit of it, a
// store hit and a failed cell carrying a partial CPI stack. /metrics,
// /campaign, Totals and the manifest must report the same counts and
// simulated work, and the per-bucket CPI counters must sum to
// portsim_sim_cycles_total: they cover the same cells, the simulated
// ones. The failed cell's partial stack stays in its manifest row and on
// /campaign.
func TestSurfacesAgree(t *testing.T) {
	stack := func(useful, sbFull uint64) *cpustack.Snapshot {
		var s cpustack.Snapshot
		s.Buckets[cpustack.Useful] = useful
		s.Buckets[cpustack.StoreBufferFull] = sbFull
		return &s
	}
	ok := CellSample{
		Machine: "baseline-1port", Workload: "compress", ConfigJSON: []byte(`{"ports":1}`), Key: "k1",
		WallSeconds: 0.5, Cycles: 1000, Insts: 800, PortUtilization: 0.4, PortRejectRate: 0.2,
		CPIStack: stack(700, 300),
	}
	memo := ok
	memo.MemoHit, memo.WallSeconds = true, 0
	c := NewCampaign(4, true, nil)
	c.CellDone(ok)
	c.CellDone(memo)
	c.CellDone(CellSample{
		Machine: "2-port", Workload: "eqntott", ConfigJSON: []byte(`{"ports":2}`), Key: "k2",
		StoreHit: true, Cycles: 600, Insts: 500, PortUtilization: 0.3, PortRejectRate: 0.1,
		CPIStack: stack(400, 200),
	})
	c.CellDone(CellSample{
		Machine: "2-port", Workload: "compress", ConfigJSON: []byte(`{"ports":2}`), Key: "k3",
		Failed: true, Error: "experiments: watchdog stall", PortUtilization: -1, PortRejectRate: -1,
		CPIStack: stack(50, 50_000),
	})

	metrics := map[string]MetricSnapshot{}
	var cpiSum uint64
	for _, m := range c.Metrics() {
		metrics[m.Name] = m
		if strings.HasPrefix(m.Name, "portsim_cpi_") {
			cpiSum += m.IntValue
		}
	}
	count := func(name string) uint64 { return metrics[name].IntValue }
	st := c.Status()
	totals := c.Totals()
	info := sampleInfo()
	info.Store = &ManifestStore{Dir: "cells", Hits: 1, Misses: 1, Puts: 1}
	m := c.BuildManifest(info)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	// done, failed, memo hits, store hits, simulated cycles
	want := [5]uint64{4, 1, 1, 1, 1000}
	for name, got := range map[string][5]uint64{
		"/metrics": {count("portsim_cells_done_total"), count("portsim_cells_failed_total"),
			count("portsim_cells_memo_hits_total"), count("portsim_cells_store_hits_total"), count("portsim_sim_cycles_total")},
		"/campaign": {uint64(st.Done), uint64(st.Failed), uint64(st.MemoHits), uint64(st.StoreHits), st.SimCycles},
		"Totals": {uint64(totals.Cells), uint64(totals.Failed), uint64(totals.MemoHits), uint64(totals.StoreHits),
			totals.SimCycles},
		"manifest": {uint64(m.Totals.Cells), uint64(m.Totals.Failed), uint64(m.Totals.MemoHits),
			uint64(m.Totals.StoreHits), m.Totals.SimCycles},
	} {
		if got != want {
			t.Errorf("%s reports done/failed/memo/store/cycles %v, want %v", name, got, want)
		}
	}
	// /campaign carries no instruction count.
	if got := [3]uint64{count("portsim_sim_insts_total"), totals.SimInsts, m.Totals.SimInsts}; got != [3]uint64{800, 800, 800} {
		t.Errorf("/metrics, Totals and manifest report %v simulated instructions, want 800", got)
	}
	if cpiSum != count("portsim_sim_cycles_total") {
		t.Errorf("portsim_cpi_*_cycles_total sum to %d, portsim_sim_cycles_total is %d", cpiSum, count("portsim_sim_cycles_total"))
	}
	var manifestCPI uint64
	for _, v := range m.CPIStack {
		manifestCPI += v
	}
	if manifestCPI != cpiSum {
		t.Errorf("manifest cpi_stack sums to %d, /metrics' CPI counters to %d", manifestCPI, cpiSum)
	}
	for _, name := range []string{"portsim_cell_wall_seconds", "portsim_port_utilization", "portsim_port_reject_rate"} {
		if n := metrics[name].Count; n != 1 {
			t.Errorf("%s holds %d samples, want the 1 simulated cell", name, n)
		}
	}
	for _, cell := range m.Cells {
		if cell.Outcome == OutcomeFailed && cell.CPIStack["store-buffer-full"] != 50_000 {
			t.Errorf("failed manifest row lost its partial stack: %v", cell.CPIStack)
		}
	}
	for _, cs := range st.Cells {
		if cs.State == OutcomeFailed && cs.CPIStack["store-buffer-full"] != 50_000 {
			t.Errorf("failed /campaign cell lost its partial stack: %v", cs.CPIStack)
		}
	}
}
