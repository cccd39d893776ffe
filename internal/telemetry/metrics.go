package telemetry

import (
	"math"
	"sort"
	"time"

	"portsim/internal/cpustack"
)

// Metric kinds, as WritePrometheus spells them on # TYPE lines.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Gauge is a /metrics series read from outside the campaign record at
// scrape time, such as the cell store's health or the arena registry's
// residency. Value must be safe to call from the HTTP scrape goroutine.
type Gauge struct {
	Name, Help string
	Value      func() float64
}

// BucketSnapshot is one cumulative histogram bucket: the count of samples
// with value <= UpperBound. The +Inf bucket is represented by
// math.Inf(1).
type BucketSnapshot struct {
	UpperBound float64
	Cumulative uint64
}

// MetricSnapshot is one metric frozen at scrape time.
type MetricSnapshot struct {
	Name string
	Help string
	Kind string

	// Value carries gauges; IntValue carries counters exactly (a float64
	// mantissa truncates above 2^53).
	Value    float64
	IntValue uint64

	// Histogram state; Buckets are cumulative in Prometheus style.
	Buckets []BucketSnapshot
	Sum     float64
	Count   uint64
}

// Upper bucket bounds of the per-cell histograms, strictly ascending; the
// +Inf bucket is implicit.
var (
	wallBounds   = []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 120}
	utilBounds   = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
	rejectBounds = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1}
)

// The simulated-work series count only the cells simulated to completion
// in this run (ManifestCell.simulated), and their HELP text says so.
const (
	simulatedOnly   = " (memo hits, store hits and failed cells left out)."
	acrossSimulated = " across the cells simulated in this run" + simulatedOnly
)

// Metrics renders the record as the /metrics series, in a fixed order:
// cell counts, simulated work, the per-cell histograms, the rates since
// campaign start, one cycle counter per CPI bucket when accounting is on,
// then the campaign's gauges. Counts, sums and histograms are folded from
// the completed rows at call time; the work totals, the histograms and the
// CPI counters cover the same cells, the simulated ones.
func (c *Campaign) Metrics() []MetricSnapshot {
	var wall, util, reject []float64
	c.mu.Lock()
	t := c.tallyLocked()
	for i := range c.rows {
		r := &c.rows[i]
		if !r.simulated() {
			continue
		}
		wall = append(wall, r.WallSeconds)
		if r.portUtilization >= 0 {
			util = append(util, r.portUtilization)
		}
		if r.portRejectRate >= 0 {
			reject = append(reject, r.portRejectRate)
		}
	}
	c.mu.Unlock()

	var cyclesPerSecond, allocsPer1k float64
	if secs := time.Since(c.start).Seconds(); secs > 0 {
		cyclesPerSecond = float64(t.SimCycles) / secs
	}
	if t.SimCycles > 0 {
		allocs := mallocCount() - c.startMallocs //portlint:ignore cyclemath runtime.MemStats.Mallocs is monotonic and startMallocs sampled the earlier value
		allocsPer1k = float64(allocs) / (float64(t.SimCycles) / 1000)
	}
	out := []MetricSnapshot{
		gauge("portsim_cells_planned", "Experiment cells the selected suite will submit.", float64(c.planned)),
		counter("portsim_cells_done_total", "Experiment cells completed (simulated, memoised or failed).", uint64(t.Cells)),
		counter("portsim_cells_failed_total", "Experiment cells that failed (panic, deadline, watchdog stall).", uint64(t.Failed)),
		counter("portsim_cells_memo_hits_total", "Experiment cells satisfied from the runner's memo cache.", uint64(t.MemoHits)),
		counter("portsim_cells_store_hits_total", "Experiment cells restored from the durable cell store.", uint64(t.StoreHits)),
		counter("portsim_sim_cycles_total", "Simulated cycles"+acrossSimulated, t.SimCycles),
		counter("portsim_sim_insts_total", "Committed instructions"+acrossSimulated, t.SimInsts),
		histogram("portsim_cell_wall_seconds", "Wall-clock time, one sample per cell simulated in this run"+simulatedOnly, wallBounds, wall),
		histogram("portsim_port_utilization", "Mean fraction of cache-port slots granted per cycle, one sample per cell simulated in this run"+simulatedOnly, utilBounds, util),
		histogram("portsim_port_reject_rate", "Fraction of cache-port offers refused, one sample per cell simulated in this run"+simulatedOnly, rejectBounds, reject),
		gauge("portsim_sim_cycles_per_second", "Simulated cycles per wall second since campaign start.", cyclesPerSecond),
		gauge("portsim_allocs_per_1k_cycles", "Heap allocations per thousand simulated cycles since campaign start.", allocsPer1k),
	}
	if c.cpiStack {
		// The exposition has no labels, so the bucket is part of the name.
		for b := cpustack.Bucket(0); b < cpustack.NumBuckets; b++ {
			out = append(out, counter("portsim_cpi_"+b.MetricName()+"_cycles_total",
				"Simulated cycles attributed to "+b.String()+acrossSimulated, t.cpi[b.String()]))
		}
	}
	for _, g := range c.gauges {
		out = append(out, gauge(g.Name, g.Help, g.Value()))
	}
	return out
}

func counter(name, help string, v uint64) MetricSnapshot {
	return MetricSnapshot{Name: name, Help: help, Kind: kindCounter, IntValue: v}
}

func gauge(name, help string, v float64) MetricSnapshot {
	return MetricSnapshot{Name: name, Help: help, Kind: kindGauge, Value: v}
}

// histogram buckets samples under ascending upper bounds, the shape
// Prometheus expects: bucket i counts the samples <= bounds[i], and a
// final +Inf bucket counts them all. Sum adds the samples in order. Bounds
// that are empty or not strictly ascending are a programming error and
// panic, since the bucket search would misplace samples silently.
func histogram(name, help string, bounds, samples []float64) MetricSnapshot {
	if len(bounds) == 0 {
		panic("telemetry: histogram " + name + " needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("telemetry: histogram " + name + " bounds must be strictly ascending")
		}
	}
	counts := make([]uint64, len(bounds)+1)
	s := MetricSnapshot{Name: name, Help: help, Kind: kindHistogram, Count: uint64(len(samples))}
	for _, v := range samples {
		counts[sort.SearchFloat64s(bounds, v)]++
		s.Sum += v
	}
	s.Buckets = make([]BucketSnapshot, len(counts))
	var cum uint64
	for i, n := range counts {
		cum += n
		bound := math.Inf(1)
		if i < len(bounds) {
			bound = bounds[i]
		}
		s.Buckets[i] = BucketSnapshot{UpperBound: bound, Cumulative: cum}
	}
	return s
}
