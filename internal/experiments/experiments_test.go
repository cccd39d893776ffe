package experiments

import (
	"slices"
	"strings"
	"testing"

	"portsim/internal/config"
	"portsim/internal/cpu"
	"portsim/internal/stats"
)

// quickRunner is shared by the shape tests; runs are memoised inside it.
func quickRunner() *Runner { return NewRunner(QuickSpec()) }

// runCell submits one named workload on one machine through the runner's
// cell path, as a plan row of its own.
func runCell(r *Runner, m config.Machine, workloadName string) (*cpu.Result, error) {
	return r.run(&cellReq{m: m, planStream: named(workloadName).hashed()})
}

func TestT1RendersAllParameters(t *testing.T) {
	out := T1Baseline().String()
	for _, frag := range []string{"reorder buffer", "L1D", "L2", "gshare", "fill path", "store buffer"} {
		if !strings.Contains(out, frag) {
			t.Errorf("T1 missing %q:\n%s", frag, out)
		}
	}
}

func TestRunnerMemoises(t *testing.T) {
	r := quickRunner()
	a, err := runCell(r, config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCell(r, config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical run not memoised")
	}
	c, err := runCell(r, config.DualPort(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different machines shared a memo entry")
	}
}

func TestRunnerRejectsUnknownWorkload(t *testing.T) {
	if _, err := runCell(quickRunner(), config.Baseline(), "doom"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// entry reads an entry the test needs from a table.
func entry(t *testing.T, tb *stats.Table, col string, labels ...string) float64 {
	t.Helper()
	v, ok := tb.Value(col, labels...)
	if !ok {
		t.Fatalf("no %q entry in row %q of\n%s", col, labels, tb)
	}
	return v
}

func TestT2Shapes(t *testing.T) {
	r := quickRunner()
	_, table, err := T2Characterisation(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.spec.Workloads {
		if v := entry(t, table, "loads", w); v <= 0.1 || v > 0.5 {
			t.Errorf("%s: load fraction %.3f implausible", w, v)
		}
		if v := entry(t, table, "stores", w); v <= 0.02 || v > 0.3 {
			t.Errorf("%s: store fraction %.3f implausible", w, v)
		}
		if v := entry(t, table, "IPC", w); v <= 0 || v > 4 {
			t.Errorf("%s: IPC %.3f out of range", w, v)
		}
		if v := entry(t, table, "L1D miss", w); v <= 0 || v > 0.5 {
			t.Errorf("%s: miss rate %.3f implausible", w, v)
		}
	}
	if !strings.Contains(table.String(), "compress") {
		t.Error("table missing workload rows")
	}
}

// TestF1MorePortsNeverHurt checks the central monotonicity of Figure 1.
func TestF1MorePortsNeverHurt(t *testing.T) {
	r := quickRunner()
	_, table, err := F1PortCount(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.spec.Workloads {
		p1, p2, p4 := entry(t, table, "1 port", w), entry(t, table, "2 ports", w), entry(t, table, "4 ports", w)
		if p2 < p1*0.995 {
			t.Errorf("%s: 2 ports (%.3f) below 1 port (%.3f)", w, p2, p1)
		}
		if p4 < p2*0.995 {
			t.Errorf("%s: 4 ports (%.3f) below 2 ports (%.3f)", w, p4, p2)
		}
		// Diminishing returns: the 2->4 step must be smaller than 1->2.
		if gain12, gain24 := p2-p1, p4-p2; gain24 > gain12 {
			t.Errorf("%s: port returns not diminishing (1->2 %+.3f, 2->4 %+.3f)", w, gain12, gain24)
		}
	}
}

// TestF1ColumnsFollowPortCounts checks that F1's cells and columns both
// derive from f1Ports: a fourth count plans one more cell per workload and
// adds its column, with the ratio column still over the first two counts.
// It changes f1Ports, so it must not run in parallel.
func TestF1ColumnsFollowPortCounts(t *testing.T) {
	spec := QuickSpec()
	spec.Insts = 2_000
	var f1 Experiment
	for _, e := range Suite() {
		if e.ID == "F1" {
			f1 = e
		}
	}
	before := len(f1.Cells(spec))
	saved := f1Ports
	t.Cleanup(func() { f1Ports = saved })
	f1Ports = []int{1, 2, 4, 8}
	if got, want := len(f1.Cells(spec)), before+len(spec.Workloads); got != want {
		t.Errorf("F1 plans %d cells with an 8-port machine, want %d", got, want)
	}
	_, table, err := F1PortCount(NewRunner(spec))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(slices.Clone(spec.Workloads), "geomean") {
		entry(t, table, "8 ports", w)
		one, two := entry(t, table, "1 port", w), entry(t, table, "2 ports", w)
		if ratio := entry(t, table, "1p/2p", w); ratio != stats.SafeRatio(one, two) {
			t.Errorf("%s: 1p/2p = %v, want %v/%v", w, ratio, one, two)
		}
	}
}

// TestF2DeeperBuffersNeverHurt checks Figure 2's monotone-then-saturate
// shape.
func TestF2DeeperBuffersNeverHurt(t *testing.T) {
	r := quickRunner()
	_, table, err := F2BufferDepth(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.spec.Workloads {
		sb1, sb16, sb32 := entry(t, table, "sb=1", w), entry(t, table, "sb=16", w), entry(t, table, "sb=32", w)
		if sb32 < sb1*0.995 {
			t.Errorf("%s: deep buffer (%.3f) below unbuffered (%.3f)", w, sb32, sb1)
		}
		// Saturation: the 16->32 step is tiny.
		if rel := sb32/sb16 - 1; rel > 0.03 {
			t.Errorf("%s: buffer depth not saturating (16->32 gains %.1f%%)", w, 100*rel)
		}
	}
}

// TestF3NaiveWidthIsWasted checks Figure 3's motivating observation: width
// without load-all or combining changes almost nothing.
func TestF3NaiveWidthIsWasted(t *testing.T) {
	r := quickRunner()
	_, table, err := F3PortWidth(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.spec.Workloads {
		if rel := entry(t, table, "32B", w)/entry(t, table, "8B", w) - 1; rel > 0.02 || rel < -0.02 {
			t.Errorf("%s: naive width changed IPC by %.1f%%; should be inert", w, 100*rel)
		}
	}
}

// TestF4LoadAllHelpsSpatialWorkloads checks Figure 4: line buffers raise
// IPC, capture more loads with more buffers, and help spatially local
// workloads most. Every hit-rate column is headed "hit", so the hit rates
// are derived from the results by the same helper as the table's.
func TestF4LoadAllHelpsSpatialWorkloads(t *testing.T) {
	r := quickRunner()
	g, table, err := F4LineBuffers(r)
	if err != nil {
		t.Fatal(err)
	}
	hits := map[string]map[int]float64{}
	for i, w := range r.spec.Workloads {
		hits[w] = map[int]float64{}
		for j, n := range F4Buffers {
			hits[w][n] = ofLoads(g[i][j], g[i][j].Counters.Get(stats.PortLoadsFromLineBuffer))
		}
		if lb0, lb4 := entry(t, table, "lb=0", w), entry(t, table, "lb=4", w); lb4 < lb0*0.995 {
			t.Errorf("%s: 4 line buffers (%.3f) below none (%.3f)", w, lb4, lb0)
		}
		if hits[w][8] < hits[w][1]*0.95 {
			t.Errorf("%s: hit rate fell with more buffers (1:%.3f 8:%.3f)", w, hits[w][1], hits[w][8])
		}
	}
	if eq, db := hits["eqntott"], hits["database"]; eq != nil && db != nil {
		if eq[4] <= db[4] {
			t.Errorf("sequential eqntott (%.3f) should out-hit random database (%.3f)", eq[4], db[4])
		}
	}
}

// TestF5CombiningSavesPortWrites checks Figure 5: combining retires more
// than one store per drain and never hurts IPC.
func TestF5CombiningSavesPortWrites(t *testing.T) {
	r := quickRunner()
	_, table, err := F5StoreCombining(r)
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, w := range r.spec.Workloads {
		perDrain := entry(t, table, "stores/drain (on,16)", w)
		if perDrain < 1.0 {
			t.Errorf("%s: stores/drain %.2f below 1; accounting broken", w, perDrain)
		}
		best = max(best, perDrain)
		if on, off := entry(t, table, "on sb=16", w), entry(t, table, "off sb=16", w); on < off*0.99 {
			t.Errorf("%s: combining hurt IPC (%.3f vs %.3f)", w, on, off)
		}
	}
	// Combining is workload-dependent: random stores rarely share a chunk,
	// but at least the sequential-store workloads must combine strongly.
	if best < 1.3 {
		t.Errorf("no workload combined stores effectively (best %.2f stores/drain)", best)
	}
}

// TestF6HeadlineShape checks the paper's headline ordering: single <= best
// <= dual (within noise), with best recovering part of the gap and landing
// in the >=90%-of-dual band the paper reports.
func TestF6HeadlineShape(t *testing.T) {
	r := quickRunner()
	rows, table, err := F6Headline(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range r.spec.Workloads {
		single, best, dual := entry(t, table, "single", w), entry(t, table, "best-single", w), entry(t, table, "dual", w)
		if dual < single {
			t.Errorf("%s: dual (%.3f) below single (%.3f)", w, dual, single)
		}
		if best < single*0.99 {
			t.Errorf("%s: techniques hurt (best %.3f vs single %.3f)", w, best, single)
		}
		ofDual := entry(t, table, "best/dual", w)
		if ofDual < 0.85 || ofDual > 1.02 {
			t.Errorf("%s: best/dual %.3f outside the plausible band", w, ofDual)
		}
		if want := (F6Row{w, single, best, dual, ofDual}); rows[i] != want {
			t.Errorf("row %d = %+v, want the table's %+v", i, rows[i], want)
		}
	}
	entry(t, table, "best/dual", "geomean")
}

func TestT3Accounting(t *testing.T) {
	r := quickRunner()
	_, table, err := T3PortUtilisation(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.spec.Workloads {
		sum := entry(t, table, "loads cache", w) + entry(t, table, "loads line-buf", w) + entry(t, table, "loads store-buf", w)
		// LSQ-forwarded loads never reach the port, so the sum is <= 1.
		if sum > 1.001 || sum < 0.5 {
			t.Errorf("%s: load sources sum to %.3f", w, sum)
		}
		if util := entry(t, table, "port util", w); util <= 0 || util > 1 {
			t.Errorf("%s: utilisation %.3f out of range", w, util)
		}
		if perDrain := entry(t, table, "stores/drain", w); perDrain < 1 {
			t.Errorf("%s: stores/drain %.2f below 1", w, perDrain)
		}
	}
}

// TestF7KernelDisruption checks Figure 7's shape: kernel fraction rises
// across the sweep.
func TestF7KernelDisruption(t *testing.T) {
	_, table, err := F7KernelIntensity(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	levels := []string{"none", "low", "medium", "high"}
	frac := make([]float64, len(levels))
	for i, l := range levels {
		frac[i] = entry(t, table, "kernel frac", l)
		if gain := entry(t, table, "best/single", l); gain < 0.99 {
			t.Errorf("%s: techniques hurt (gain %.3f)", l, gain)
		}
	}
	if frac[0] != 0 {
		t.Errorf("disabled kernel produced fraction %.3f", frac[0])
	}
	// Episode lengths are geometric, so short quick-spec runs are noisy;
	// require the broad trend rather than strict monotonicity.
	for i := 1; i < len(frac); i++ {
		if frac[i] <= frac[i-1]-0.08 {
			t.Errorf("kernel fraction fell sharply: %v then %v", frac[i-1], frac[i])
		}
	}
	if frac[1] <= 0 {
		t.Error("low intensity produced no kernel activity")
	}
	if last := frac[len(frac)-1]; last < 0.15 {
		t.Errorf("high intensity kernel fraction %.3f too low", last)
	}
}

// TestA1AblationOrdering checks that the combined techniques beat any
// single technique and the plain single port.
func TestA1AblationOrdering(t *testing.T) {
	_, table, err := A1Ablation(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	geo := func(label string) float64 { return entry(t, table, "geomean IPC", label) }
	all := geo("all techniques")
	if all < geo("single (none)") {
		t.Error("combined techniques below plain single port")
	}
	for _, label := range []string{"+ deep store buffer", "+ combining (wide)", "+ load-all (wide)"} {
		if all < geo(label)*0.995 {
			t.Errorf("combined techniques (%.3f) below %s alone (%.3f)", all, label, geo(label))
		}
	}
	if dual := entry(t, table, "of dual", "dual port"); dual < 0.999 || dual > 1.001 {
		t.Errorf("dual port of-dual ratio %.3f != 1", dual)
	}
}

// TestA2BankingShape checks the banking comparison: more banks help
// monotonically (within noise) and approach — but do not exceed — the
// dual-ported reference.
func TestA2BankingShape(t *testing.T) {
	_, table, err := A2Banking(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	geo := func(label string) float64 { return entry(t, table, "geomean IPC", label) }
	if geo("2 banks") < geo("single port")*0.995 {
		t.Errorf("2 banks (%.3f) below single port (%.3f)", geo("2 banks"), geo("single port"))
	}
	if geo("8 banks") < geo("2 banks")*0.995 {
		t.Errorf("8 banks (%.3f) below 2 banks (%.3f)", geo("8 banks"), geo("2 banks"))
	}
	if ofDual := entry(t, table, "of dual", "8 banks"); ofDual > 1.02 {
		t.Errorf("8 banks (%.3f of dual) implausibly beat dual porting", ofDual)
	}
}

// TestA3PrefetchShape checks the prefetch extension: accuracy is a valid
// fraction, streaming workloads are not hurt, and prefetching never
// degrades IPC by more than noise (it only uses idle slots).
func TestA3PrefetchShape(t *testing.T) {
	r := quickRunner()
	_, table, err := A3Prefetch(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.spec.Workloads {
		if acc := entry(t, table, "pf accuracy", w); acc < 0 || acc > 1 {
			t.Errorf("%s: prefetch accuracy %.3f out of range", w, acc)
		}
		base, pf := entry(t, table, "single", w), entry(t, table, "single+pf", w)
		if pf < base*0.98 {
			t.Errorf("%s: idle-slot prefetching cost %.1f%% IPC", w, 100*(1-pf/base))
		}
		// compress streams its input: prefetching must actually help it.
		if w == "compress" && pf <= base {
			t.Errorf("compress: prefetch did not help (%.3f vs %.3f)", pf, base)
		}
	}
}

// TestA4SpeculationShape: memory-dependence speculation should never lose
// much (violations are rare with well-separated regions) and the violation
// counter must be plausible.
func TestA4SpeculationShape(t *testing.T) {
	r := quickRunner()
	_, table, err := A4MemSpeculation(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.spec.Workloads {
		if cons, sp := entry(t, table, "conservative", w), entry(t, table, "speculative", w); sp < cons*0.97 {
			t.Errorf("%s: speculation lost %.1f%%", w, 100*(1-sp/cons))
		}
		if v := entry(t, table, "violations/kI", w); v < 0 || v > 50 {
			t.Errorf("%s: %.1f violations/kI implausible", w, v)
		}
	}
}

// TestA5WritePolicyShape: write-back should not lose to write-through, and
// combining must recover part of any write-through loss.
func TestA5WritePolicyShape(t *testing.T) {
	r := quickRunner()
	_, table, err := A5WritePolicy(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.spec.Workloads {
		wb, wt, wtc := entry(t, table, "write-back", w), entry(t, table, "write-through", w), entry(t, table, "WT+combining", w)
		if wt > wb*1.02 {
			t.Errorf("%s: write-through (%.3f) beat write-back (%.3f)", w, wt, wb)
		}
		if wtc < wt*0.99 {
			t.Errorf("%s: combining hurt write-through (%.3f vs %.3f)", w, wtc, wt)
		}
	}
}

// TestA6MultiprogrammingShape: more processes mean colder caches/TLBs and
// lower IPC; dual still beats single at every level.
func TestA6MultiprogrammingShape(t *testing.T) {
	_, table, err := A6Multiprogramming(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	prevMiss := 0.0
	for i, n := range []string{"1", "2", "4", "8"} {
		if single, dual := entry(t, table, "single", n), entry(t, table, "dual", n); dual < single {
			t.Errorf("x%s: dual (%.3f) below single (%.3f)", n, dual, single)
		}
		miss := entry(t, table, "L1D miss", n)
		if i > 0 && miss < prevMiss*0.9 {
			t.Errorf("x%s: miss rate fell sharply with more processes (%.3f -> %.3f)", n, prevMiss, miss)
		}
		prevMiss = miss
	}
	if x8, x1 := entry(t, table, "single", "8"), entry(t, table, "single", "1"); x8 >= x1 {
		t.Errorf("8 processes (%.3f) not slower than 1 (%.3f)", x8, x1)
	}
	if x8, x1 := entry(t, table, "dtlb miss/kI", "8"), entry(t, table, "dtlb miss/kI", "1"); x8 <= x1 {
		t.Errorf("TLB pressure did not grow with processes (%.2f vs %.2f)", x8, x1)
	}
}

// TestHeadlineRobustAcrossSeeds re-runs the headline comparison with three
// different workload seeds: the geomean best/dual ratio must stay in a
// tight band, or the reproduction would hinge on one lucky stream.
func TestHeadlineRobustAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed run is slow")
	}
	var ratios []float64
	for _, seed := range []int64{42, 7, 1234} {
		spec := QuickSpec()
		spec.Seed = seed
		_, table, err := F6Headline(NewRunner(spec))
		if err != nil {
			t.Fatal(err)
		}
		prod := 1.0
		for _, w := range spec.Workloads {
			prod *= entry(t, table, "best/dual", w)
		}
		ratios = append(ratios, prod)
	}
	for i := 1; i < len(ratios); i++ {
		rel := ratios[i] / ratios[0]
		if rel < 0.9 || rel > 1.1 {
			t.Errorf("seed sensitivity: best/dual product %v vs %v", ratios[i], ratios[0])
		}
	}
}

// TestA7LoadsFirstWins: giving committed stores the port ahead of critical-
// path loads must not help.
func TestA7LoadsFirstWins(t *testing.T) {
	r := quickRunner()
	_, table, err := A7ArbitrationPolicy(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.spec.Workloads {
		if lf, sf := entry(t, table, "loads-first", w), entry(t, table, "stores-first", w); sf > lf*1.01 {
			t.Errorf("%s: stores-first (%.3f) beat loads-first (%.3f)", w, sf, lf)
		}
	}
}

// TestT4GrantDistributionSums: the per-cycle grant fractions of a single-
// ported machine must cover (nearly) all cycles, and some cycles must use
// the port; it has no entry for a second grant.
func TestT4GrantDistributionSums(t *testing.T) {
	r := quickRunner()
	_, table, err := T4GrantDistribution(r)
	if err != nil {
		t.Fatal(err)
	}
	const m = "baseline-1port"
	for _, w := range r.spec.Workloads {
		g0, g1 := entry(t, table, "0 grants", m, w), entry(t, table, "1 grant", m, w)
		if sum := g0 + g1; sum < 0.99 || sum > 1.001 {
			t.Errorf("%s/%s: single-port grant fractions sum to %.3f", m, w, sum)
		}
		if g1 < 0.2 {
			t.Errorf("%s/%s: port busy only %.1f%% of cycles", m, w, 100*g1)
		}
		if v, ok := table.Value("2 grants", m, w); ok {
			t.Errorf("%s/%s: 2-grant entry %.3f on a single port", m, w, v)
		}
	}
}

// TestA8WrongPathShape: wrong-path fetching must generate real extra
// instruction-cache traffic, and its IPC effect stays small in either
// direction — it pollutes, but it also accidentally prefetches lines the
// correct path reaches soon after (paths reconverge), so small gains are
// legitimate.
func TestA8WrongPathShape(t *testing.T) {
	r := quickRunner()
	_, table, err := A8WrongPathFetch(r)
	if err != nil {
		t.Fatal(err)
	}
	sawExtra := false
	for _, w := range r.spec.Workloads {
		if ratio := entry(t, table, "wrong-path", w) / entry(t, table, "idealised", w); ratio < 0.9 || ratio > 1.05 {
			t.Errorf("%s: wrong-path effect %.3f outside the plausible band", w, ratio)
		}
		if entry(t, table, "extra L1I miss/kI", w) > 0.01 {
			sawExtra = true
		}
	}
	if !sawExtra {
		t.Error("no workload showed extra L1I misses; wrong-path fetch inert")
	}
}
