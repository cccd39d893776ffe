// Package telemetry is the observability layer over a portsim campaign: a
// live metrics registry served over HTTP (Prometheus text, health, live
// campaign status), a Chrome trace-event exporter for flight-recorder tails
// (Perfetto / chrome://tracing), and machine-readable run manifests tying
// every table to its exact inputs.
//
// The layering contract, enforced by portlint's layerimports analyzer: the
// simulator packages (internal/cpu, internal/core, internal/mem) never
// import this package — telemetry is fed exclusively from end-of-cell
// stats.Set snapshots and the experiment runner's per-cell observer
// callback, both outside the hot cycle loop. A campaign with telemetry
// disabled carries a nil sink everywhere and pays nothing; tables are
// byte-identical either way.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. It is safe for concurrent
// use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. It is safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a cumulative-bucket histogram over float64 samples, the
// shape Prometheus expects: counts[i] holds samples <= bounds[i] minus
// those in earlier buckets, and an implicit +Inf bucket catches the rest.
// Its float ranges suit host-side telemetry: wall seconds, utilization
// fractions, reject rates.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds, exclusive of +Inf
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// snapshot returns the histogram state under its lock.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	counts := make([]uint64, len(h.counts))
	copy(counts, h.counts)
	sum, count := h.sum, h.count
	h.mu.Unlock()
	return counts, sum, count
}

// metricKind labels a registry entry for the encoders.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// metric is one registry entry. Exactly one of counter/gauge/gaugeFn/hist
// is set, matching kind.
type metric struct {
	name, help string
	kind       metricKind

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// Registry holds a campaign's metrics in registration order, so every
// encoding of a snapshot is deterministic. Registration panics on a
// duplicate or malformed name — both are programming errors, caught by the
// first test that touches the metric.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// register adds one entry or panics on a conflict.
func (r *Registry) register(m *metric) {
	if !validMetricName(m.name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name))
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// validMetricName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// GaugeFunc registers a gauge computed by fn at snapshot time. fn must be
// safe to call from the HTTP scrape goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGauge, gaugeFn: fn})
}

// Histogram registers and returns a histogram with the given ascending
// bucket upper bounds (the +Inf bucket is implicit). It panics on empty or
// unsorted bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not strictly ascending", name))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// BucketSnapshot is one cumulative histogram bucket: the count of samples
// with value <= UpperBound. The +Inf bucket is represented by
// math.Inf(1).
type BucketSnapshot struct {
	UpperBound float64
	Cumulative uint64
}

// MetricSnapshot is one metric frozen at snapshot time.
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

// Snapshot freezes every metric in registration order.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	out := make([]MetricSnapshot, 0, len(metrics))
	for _, m := range metrics {
		s := MetricSnapshot{Name: m.name, Help: m.help, Kind: string(m.kind)}
		switch {
		case m.counter != nil:
			s.IntValue = m.counter.Value()
		case m.gauge != nil:
			s.Value = m.gauge.Value()
		case m.gaugeFn != nil:
			s.Value = m.gaugeFn()
		case m.hist != nil:
			counts, sum, count := m.hist.snapshot()
			s.Sum, s.Count = sum, count
			s.Buckets = make([]BucketSnapshot, len(counts))
			cum := uint64(0)
			for i, c := range counts {
				cum += c
				bound := math.Inf(1)
				if i < len(m.hist.bounds) {
					bound = m.hist.bounds[i]
				}
				s.Buckets[i] = BucketSnapshot{UpperBound: bound, Cumulative: cum}
			}
		}
		out = append(out, s)
	}
	return out
}
