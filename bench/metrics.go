package main

import (
	"math"
	"sort"

	"portsim/internal/workload"
)

// metric describes one number the benchmark reports. The catalogue below is
// the single definition of names, units and directions; BENCHMARK.json
// mirrors it, and bench_test.go fails when the two disagree.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics have none.
	Bound float64
	// Moves and On are the layer map of a per-layer metric: the end-to-end
	// metrics a change to this number should move, and the workloads where
	// it does the most work.
	Moves []string
	On    []string
}

// Workload names, in BENCHMARK.json order.
const (
	campaignCold   = "campaign-cold"
	campaignTight  = "campaign-tight"
	campaignResume = "campaign-resume"
	facadeSerial   = "facade-serial"
)

var (
	allWorkloads = []string{campaignCold, campaignTight, campaignResume, facadeSerial}
	campaigns    = []string{campaignCold, campaignTight, campaignResume}
)

// endToEnd are the numbers a user of the simulator sees, measured on
// untraced runs. The bounds come from the run-to-run spread measured over
// ten seeds (bench/README.md, "Baseline"): about three times the spread
// for memory and allocations, and the 0.25 ceiling for the time-based
// metrics, whose spread the host's own drift keeps between 5% and 28%.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_minsts_per_s", Unit: "Minsts/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.12},
	{Name: "allocs_per_1k_cycles", Unit: "allocs/kcycle", Better: "lower", Bound: 0.10},
}

// reportOnly are printed and recorded but not gated: failed_frac is zero on
// every healthy run, and paper_gap_pp is a deterministic function of the
// seed, so neither has a run-to-run spread a bound could be set from. A
// failure or a model change fails the correctness check instead.
var reportOnly = []metric{
	{Name: "failed_frac", Unit: "frac", Better: "lower"},
	{Name: "paper_gap_pp", Unit: "pp", Better: "lower"},
}

// suiteIDs are the experiment ids in cmd/portbench's order.
var suiteIDs = []string{"T1", "T2", "F1", "F2", "F3", "F4", "F5", "F6", "T3", "T4", "F7",
	"A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"}

// perLayer are the traced run's numbers, grouped by the module they
// measure. Each names the end-to-end metrics it moves and the workloads it
// moves them on.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	var out []metric
	group := func(moves, on []string, defs ...[3]string) {
		for _, d := range defs {
			out = append(out, metric{Name: d[0], Unit: d[1], Better: d[2], Moves: moves, On: on})
		}
	}
	wallRate := []string{"wall_s", "sim_minsts_per_s"}
	group(wallRate, []string{campaignCold},
		[3]string{"experiments.cells", "count", "lower"},
		[3]string{"experiments.cells_simulated", "count", "lower"},
		[3]string{"experiments.memo_hits", "count", "higher"},
		[3]string{"experiments.store_hits", "count", "higher"},
		[3]string{"experiments.cell_busy_s", "s", "lower"},
		[3]string{"experiments.cell_p50_ms", "ms", "lower"},
		[3]string{"experiments.cell_p95_ms", "ms", "lower"},
		[3]string{"experiments.idle_s", "s", "lower"},
		[3]string{"experiments.parallel_eff", "frac", "higher"},
		[3]string{"experiments.pool_hit_frac", "frac", "higher"},
	)
	for _, id := range suiteIDs {
		group(wallRate, []string{campaignCold}, [3]string{"experiments.exp_s." + id, "s", "lower"})
	}
	group([]string{"wall_s", "peak_rss_mib"}, []string{campaignTight, campaignCold},
		[3]string{"trace.arena_builds", "count", "lower"},
		[3]string{"trace.arena_replays", "count", "higher"},
		[3]string{"trace.arena_fallbacks", "count", "lower"},
		[3]string{"trace.arena_evictions", "count", "lower"},
		[3]string{"trace.arena_resident_mib", "MiB", "lower"},
		[3]string{"trace.materialize_s", "s", "lower"},
		[3]string{"trace.replay_ns_per_inst", "ns/inst", "lower"},
	)
	group([]string{"wall_s"}, []string{facadeSerial, campaignTight},
		[3]string{"workload.gen_ns_per_inst", "ns/inst", "lower"},
		[3]string{"workload.multiprogram_ns_per_inst", "ns/inst", "lower"},
	)
	group(wallRate, allWorkloads,
		[3]string{"cpu.sim_cycles", "count", "lower"},
		[3]string{"cpu.stepped_frac", "frac", "lower"},
		[3]string{"cpu.ns_per_stepped_cycle", "ns/cycle", "lower"},
	)
	for _, p := range workload.Names() {
		group(wallRate, allWorkloads, [3]string{"cpu.run_ns_per_inst." + p, "ns/inst", "lower"})
	}
	group([]string{"wall_s", "setup_s"}, allWorkloads,
		[3]string{"cpu.new_ms", "ms", "lower"},
		[3]string{"cpu.reset_ms", "ms", "lower"},
	)
	// A model change shifts the stack and the simulated cycles behind it,
	// and host time follows the number of cycles stepped.
	group([]string{"wall_s"}, campaigns,
		[3]string{"cpustack.useful_frac", "frac", "higher"},
		[3]string{"cpustack.fetch_starved_frac", "frac", "lower"},
		[3]string{"cpustack.issue_frac", "frac", "lower"},
		[3]string{"cpustack.mem_frac", "frac", "lower"},
		[3]string{"cpustack.store_buffer_full_frac", "frac", "lower"},
		[3]string{"cpustack.commit_stall_frac", "frac", "lower"},
		[3]string{"cpustack.skipped_inert_frac", "frac", "lower"},
	)
	group([]string{"wall_s"}, allWorkloads,
		[3]string{"core.port_grants", "count", "lower"},
		[3]string{"core.grant_frac", "frac", "higher"},
		[3]string{"core.lb_hit_frac", "frac", "higher"},
		[3]string{"core.sb_stores_per_drain", "stores/drain", "higher"},
		[3]string{"mem.l1d_miss_frac", "frac", "lower"},
		[3]string{"mem.dram_accesses", "count", "lower"},
		[3]string{"mem.dtlb_miss_frac", "frac", "lower"},
		[3]string{"mem.data_access_ns", "ns/op", "lower"},
		[3]string{"bpred.mispredict_frac", "frac", "lower"},
		[3]string{"bpred.predict_ns_per_op", "ns/op", "lower"},
	)
	group([]string{"wall_s", "setup_s"}, []string{campaignResume},
		[3]string{"cellstore.puts", "count", "lower"},
		[3]string{"cellstore.hits", "count", "higher"},
		[3]string{"cellstore.quarantined", "count", "lower"},
		[3]string{"cellstore.open_ms", "ms", "lower"},
		[3]string{"cellstore.put_ms_p50", "ms", "lower"},
		[3]string{"cellstore.put_ms_p95", "ms", "lower"},
		[3]string{"cellstore.get_ms_p50", "ms", "lower"},
		[3]string{"cellstore.get_ms_p95", "ms", "lower"},
	)
	group([]string{"wall_s"}, []string{campaignCold},
		[3]string{"stats.render_ms", "ms", "lower"},
	)
	group([]string{"setup_s", "wall_s"}, []string{facadeSerial},
		[3]string{"portsim.new_ms", "ms", "lower"},
		[3]string{"portsim.run_ns_per_inst", "ns/inst", "lower"},
	)
	// The benchmark's own cost moves no number a user sees.
	group(nil, nil, [3]string{"bench.trace_overhead_frac", "frac", "lower"})
	return out
}

// summary is a sample's median and quartiles.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the quartiles of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the numbers here match a recomputation in Python.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if n == 1 {
		return summary{Median: d[0], Q1: d[0], Q3: d[0], N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return summary{Median: q(2), Q1: q(1), Q3: q(3), N: n}
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; zero for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	pos := p / 100 * float64(len(d)-1)
	lo := int(pos)
	if lo >= len(d)-1 {
		return d[len(d)-1]
	}
	return d[lo] + (pos-float64(lo))*(d[lo+1]-d[lo])
}

// safeDiv returns num/den, or zero when den is zero.
func safeDiv(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
