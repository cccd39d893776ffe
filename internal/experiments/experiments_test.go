package experiments

import (
	"strings"
	"testing"

	"portsim/internal/config"
	"portsim/internal/cpu"
)

// quickRunner is shared by the shape tests; runs are memoised inside it.
func quickRunner() *Runner { return NewRunner(QuickSpec()) }

// runCell submits one named workload on one machine through the runner's
// cell path, as a plan row of its own.
func runCell(r *Runner, m config.Machine, workloadName string) (*cpu.Result, error) {
	return r.run(cellReq{m: m, planStream: named(workloadName).hashed()})
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

func TestT2Shapes(t *testing.T) {
	r := quickRunner()
	rows, table, err := T2Characterisation(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(r.spec.Workloads) {
		t.Fatalf("%d rows for %d workloads", len(rows), len(r.spec.Workloads))
	}
	for _, row := range rows {
		if row.LoadFrac <= 0.1 || row.LoadFrac > 0.5 {
			t.Errorf("%s: load fraction %.3f implausible", row.Workload, row.LoadFrac)
		}
		if row.StoreFrac <= 0.02 || row.StoreFrac > 0.3 {
			t.Errorf("%s: store fraction %.3f implausible", row.Workload, row.StoreFrac)
		}
		if row.BaselineIPC <= 0 || row.BaselineIPC > 4 {
			t.Errorf("%s: IPC %.3f out of range", row.Workload, row.BaselineIPC)
		}
		if row.L1DMissRate <= 0 || row.L1DMissRate > 0.5 {
			t.Errorf("%s: miss rate %.3f implausible", row.Workload, row.L1DMissRate)
		}
	}
	if !strings.Contains(table.String(), "compress") {
		t.Error("table missing workload rows")
	}
}

// TestF1MorePortsNeverHurt checks the central monotonicity of Figure 1.
func TestF1MorePortsNeverHurt(t *testing.T) {
	rows, _, err := F1PortCount(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.IPC[2] < row.IPC[1]*0.995 {
			t.Errorf("%s: 2 ports (%.3f) below 1 port (%.3f)", row.Workload, row.IPC[2], row.IPC[1])
		}
		if row.IPC[4] < row.IPC[2]*0.995 {
			t.Errorf("%s: 4 ports (%.3f) below 2 ports (%.3f)", row.Workload, row.IPC[4], row.IPC[2])
		}
		// Diminishing returns: the 2->4 step must be smaller than 1->2.
		if gain12, gain24 := row.IPC[2]-row.IPC[1], row.IPC[4]-row.IPC[2]; gain24 > gain12 {
			t.Errorf("%s: port returns not diminishing (1->2 %+.3f, 2->4 %+.3f)",
				row.Workload, gain12, gain24)
		}
	}
}

// TestF2DeeperBuffersNeverHurt checks Figure 2's monotone-then-saturate
// shape.
func TestF2DeeperBuffersNeverHurt(t *testing.T) {
	rows, _, err := F2BufferDepth(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.IPC[32] < row.IPC[1]*0.995 {
			t.Errorf("%s: deep buffer (%.3f) below unbuffered (%.3f)", row.Workload, row.IPC[32], row.IPC[1])
		}
		// Saturation: the 16->32 step is tiny.
		if rel := row.IPC[32]/row.IPC[16] - 1; rel > 0.03 {
			t.Errorf("%s: buffer depth not saturating (16->32 gains %.1f%%)", row.Workload, 100*rel)
		}
	}
}

// TestF3NaiveWidthIsWasted checks Figure 3's motivating observation: width
// without load-all or combining changes almost nothing.
func TestF3NaiveWidthIsWasted(t *testing.T) {
	rows, _, err := F3PortWidth(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if rel := row.IPC[32]/row.IPC[8] - 1; rel > 0.02 || rel < -0.02 {
			t.Errorf("%s: naive width changed IPC by %.1f%%; should be inert", row.Workload, 100*rel)
		}
	}
}

// TestF4LoadAllHelpsSpatialWorkloads checks Figure 4: line buffers raise
// IPC, capture more loads with more buffers, and help spatially local
// workloads most.
func TestF4LoadAllHelpsSpatialWorkloads(t *testing.T) {
	rows, _, err := F4LineBuffers(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]F4Row{}
	for _, row := range rows {
		byName[row.Workload] = row
		if row.IPC[4] < row.IPC[0]*0.995 {
			t.Errorf("%s: 4 line buffers (%.3f) below none (%.3f)", row.Workload, row.IPC[4], row.IPC[0])
		}
		if row.HitRate[8] < row.HitRate[1]*0.95 {
			t.Errorf("%s: hit rate fell with more buffers (1:%.3f 8:%.3f)",
				row.Workload, row.HitRate[1], row.HitRate[8])
		}
	}
	if eq, db := byName["eqntott"], byName["database"]; eq.Workload != "" && db.Workload != "" {
		if eq.HitRate[4] <= db.HitRate[4] {
			t.Errorf("sequential eqntott (%.3f) should out-hit random database (%.3f)",
				eq.HitRate[4], db.HitRate[4])
		}
	}
}

// TestF5CombiningSavesPortWrites checks Figure 5: combining retires more
// than one store per drain and never hurts IPC.
func TestF5CombiningSavesPortWrites(t *testing.T) {
	rows, _, err := F5StoreCombining(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	best := 0.0
	for _, row := range rows {
		if row.StoresPerDrain[16] < 1.0 {
			t.Errorf("%s: stores/drain %.2f below 1; accounting broken", row.Workload, row.StoresPerDrain[16])
		}
		if row.StoresPerDrain[16] > best {
			best = row.StoresPerDrain[16]
		}
		if row.IPCOn[16] < row.IPCOff[16]*0.99 {
			t.Errorf("%s: combining hurt IPC (%.3f vs %.3f)", row.Workload, row.IPCOn[16], row.IPCOff[16])
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
	rows, table, err := F6Headline(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.DualIPC < row.SingleIPC {
			t.Errorf("%s: dual (%.3f) below single (%.3f)", row.Workload, row.DualIPC, row.SingleIPC)
		}
		if row.BestIPC < row.SingleIPC*0.99 {
			t.Errorf("%s: techniques hurt (best %.3f vs single %.3f)", row.Workload, row.BestIPC, row.SingleIPC)
		}
		if row.BestOfDual < 0.85 || row.BestOfDual > 1.02 {
			t.Errorf("%s: best/dual %.3f outside the plausible band", row.Workload, row.BestOfDual)
		}
	}
	if !strings.Contains(table.String(), "geomean") {
		t.Error("headline table missing geomean row")
	}
}

func TestT3Accounting(t *testing.T) {
	rows, _, err := T3PortUtilisation(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		sum := row.LoadsFromCache + row.LoadsFromLB + row.LoadsFromSB
		// LSQ-forwarded loads never reach the port, so the sum is <= 1.
		if sum > 1.001 || sum < 0.5 {
			t.Errorf("%s: load sources sum to %.3f", row.Workload, sum)
		}
		if row.PortUtilisation <= 0 || row.PortUtilisation > 1 {
			t.Errorf("%s: utilisation %.3f out of range", row.Workload, row.PortUtilisation)
		}
		if row.StoresPerDrain < 1 {
			t.Errorf("%s: stores/drain %.2f below 1", row.Workload, row.StoresPerDrain)
		}
	}
}

// TestF7KernelDisruption checks Figure 7's shape: kernel fraction rises
// across the sweep.
func TestF7KernelDisruption(t *testing.T) {
	rows, _, err := F7KernelIntensity(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d intensity points", len(rows))
	}
	if rows[0].KernelFrac != 0 {
		t.Errorf("disabled kernel produced fraction %.3f", rows[0].KernelFrac)
	}
	// Episode lengths are geometric, so short quick-spec runs are noisy;
	// require the broad trend rather than strict monotonicity.
	for i := 1; i < len(rows); i++ {
		if rows[i].KernelFrac <= rows[i-1].KernelFrac-0.08 {
			t.Errorf("kernel fraction fell sharply: %v then %v", rows[i-1].KernelFrac, rows[i].KernelFrac)
		}
	}
	if rows[1].KernelFrac <= 0 {
		t.Error("low intensity produced no kernel activity")
	}
	if last := rows[len(rows)-1].KernelFrac; last < 0.15 {
		t.Errorf("high intensity kernel fraction %.3f too low", last)
	}
	for _, row := range rows {
		if row.TechniqueGain < 0.99 {
			t.Errorf("%s: techniques hurt (gain %.3f)", row.Label, row.TechniqueGain)
		}
	}
}

// TestA1AblationOrdering checks that the combined techniques beat any
// single technique and the plain single port.
func TestA1AblationOrdering(t *testing.T) {
	rows, _, err := A1Ablation(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]A1Row{}
	for _, row := range rows {
		byLabel[row.Label] = row
	}
	all := byLabel["all techniques"]
	if all.Geomean < byLabel["single (none)"].Geomean {
		t.Error("combined techniques below plain single port")
	}
	for _, label := range []string{"+ deep store buffer", "+ combining (wide)", "+ load-all (wide)"} {
		if all.Geomean < byLabel[label].Geomean*0.995 {
			t.Errorf("combined techniques (%.3f) below %s alone (%.3f)",
				all.Geomean, label, byLabel[label].Geomean)
		}
	}
	if dual := byLabel["dual port"]; dual.OfDual < 0.999 || dual.OfDual > 1.001 {
		t.Errorf("dual port of-dual ratio %.3f != 1", dual.OfDual)
	}
}

// TestA2BankingShape checks the banking comparison: more banks help
// monotonically (within noise) and approach — but do not exceed — the
// dual-ported reference.
func TestA2BankingShape(t *testing.T) {
	rows, _, err := A2Banking(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]A2Row{}
	for _, row := range rows {
		byLabel[row.Label] = row
	}
	single := byLabel["single port"]
	if byLabel["2 banks"].Geomean < single.Geomean*0.995 {
		t.Errorf("2 banks (%.3f) below single port (%.3f)", byLabel["2 banks"].Geomean, single.Geomean)
	}
	if byLabel["8 banks"].Geomean < byLabel["2 banks"].Geomean*0.995 {
		t.Errorf("8 banks (%.3f) below 2 banks (%.3f)", byLabel["8 banks"].Geomean, byLabel["2 banks"].Geomean)
	}
	if byLabel["8 banks"].OfDual > 1.02 {
		t.Errorf("8 banks (%.3f of dual) implausibly beat dual porting", byLabel["8 banks"].OfDual)
	}
}

// TestA3PrefetchShape checks the prefetch extension: accuracy is a valid
// fraction, streaming workloads are not hurt, and prefetching never
// degrades IPC by more than noise (it only uses idle slots).
func TestA3PrefetchShape(t *testing.T) {
	rows, _, err := A3Prefetch(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Accuracy < 0 || row.Accuracy > 1 {
			t.Errorf("%s: prefetch accuracy %.3f out of range", row.Workload, row.Accuracy)
		}
		if row.PfIPC < row.BaseIPC*0.98 {
			t.Errorf("%s: idle-slot prefetching cost %.1f%% IPC",
				row.Workload, 100*(1-row.PfIPC/row.BaseIPC))
		}
	}
	// compress streams its input: prefetching must actually help it.
	for _, row := range rows {
		if row.Workload == "compress" && row.PfIPC <= row.BaseIPC {
			t.Errorf("compress: prefetch did not help (%.3f vs %.3f)", row.PfIPC, row.BaseIPC)
		}
	}
}

// TestA4SpeculationShape: memory-dependence speculation should never lose
// much (violations are rare with well-separated regions) and the violation
// counter must be plausible.
func TestA4SpeculationShape(t *testing.T) {
	rows, _, err := A4MemSpeculation(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Speculative < row.Conservative*0.97 {
			t.Errorf("%s: speculation lost %.1f%%", row.Workload, 100*(1-row.Speculative/row.Conservative))
		}
		if row.ViolationsPerKI < 0 || row.ViolationsPerKI > 50 {
			t.Errorf("%s: %.1f violations/kI implausible", row.Workload, row.ViolationsPerKI)
		}
	}
}

// TestA5WritePolicyShape: write-back should not lose to write-through, and
// combining must recover part of any write-through loss.
func TestA5WritePolicyShape(t *testing.T) {
	rows, _, err := A5WritePolicy(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.WTPlain > row.WBPlain*1.02 {
			t.Errorf("%s: write-through (%.3f) beat write-back (%.3f)", row.Workload, row.WTPlain, row.WBPlain)
		}
		if row.WTCombining < row.WTPlain*0.99 {
			t.Errorf("%s: combining hurt write-through (%.3f vs %.3f)", row.Workload, row.WTCombining, row.WTPlain)
		}
	}
}

// TestA6MultiprogrammingShape: more processes mean colder caches/TLBs and
// lower IPC; dual still beats single at every level.
func TestA6MultiprogrammingShape(t *testing.T) {
	rows, _, err := A6Multiprogramming(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, row := range rows {
		if row.DualIPC < row.SingleIPC {
			t.Errorf("x%d: dual (%.3f) below single (%.3f)", row.Processes, row.DualIPC, row.SingleIPC)
		}
		if i > 0 && row.L1DMiss < rows[i-1].L1DMiss*0.9 {
			t.Errorf("x%d: miss rate fell sharply with more processes (%.3f -> %.3f)",
				row.Processes, rows[i-1].L1DMiss, row.L1DMiss)
		}
	}
	if rows[3].SingleIPC >= rows[0].SingleIPC {
		t.Errorf("8 processes (%.3f) not slower than 1 (%.3f)", rows[3].SingleIPC, rows[0].SingleIPC)
	}
	if rows[3].DTLBMissKI <= rows[0].DTLBMissKI {
		t.Errorf("TLB pressure did not grow with processes (%.2f vs %.2f)",
			rows[3].DTLBMissKI, rows[0].DTLBMissKI)
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
		rows, _, err := F6Headline(NewRunner(spec))
		if err != nil {
			t.Fatal(err)
		}
		prod := 1.0
		for _, row := range rows {
			prod *= row.BestOfDual
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
	rows, _, err := A7ArbitrationPolicy(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.StoresFirst > row.LoadsFirst*1.01 {
			t.Errorf("%s: stores-first (%.3f) beat loads-first (%.3f)",
				row.Workload, row.StoresFirst, row.LoadsFirst)
		}
	}
}

// TestT4GrantDistributionSums: the per-cycle grant fractions of a single-
// ported machine must cover (nearly) all cycles, and some cycles must use
// the port.
func TestT4GrantDistributionSums(t *testing.T) {
	rows, _, err := T4GrantDistribution(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Machine != "baseline-1port" {
			continue
		}
		sum := row.Frac[0] + row.Frac[1]
		if sum < 0.99 || sum > 1.001 {
			t.Errorf("%s/%s: single-port grant fractions sum to %.3f", row.Machine, row.Workload, sum)
		}
		if row.Frac[1] < 0.2 {
			t.Errorf("%s/%s: port busy only %.1f%% of cycles", row.Machine, row.Workload, 100*row.Frac[1])
		}
	}
}

// TestA8WrongPathShape: wrong-path fetching must generate real extra
// instruction-cache traffic, and its IPC effect stays small in either
// direction — it pollutes, but it also accidentally prefetches lines the
// correct path reaches soon after (paths reconverge), so small gains are
// legitimate.
func TestA8WrongPathShape(t *testing.T) {
	rows, _, err := A8WrongPathFetch(quickRunner())
	if err != nil {
		t.Fatal(err)
	}
	sawExtra := false
	for _, row := range rows {
		ratio := row.PollutedIPC / row.IdealIPC
		if ratio < 0.9 || ratio > 1.05 {
			t.Errorf("%s: wrong-path effect %.3f outside the plausible band", row.Workload, ratio)
		}
		if row.ExtraL1IPerKI > 0.01 {
			sawExtra = true
		}
	}
	if !sawExtra {
		t.Error("no workload showed extra L1I misses; wrong-path fetch inert")
	}
}
