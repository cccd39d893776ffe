// Package experiments implements the paper's evaluation (see DESIGN.md's
// experiment index). Suite lists the experiments in campaign order. Each
// one declares a plan, its grid of streams × machines, once: the plan
// gives the cells it submits, which portbench counts and checks flags
// against before anything runs, and its driver runs the plan and derives a
// paper-style table from the results. The table's entries keep their
// numbers, so checks read them back with stats.Table.Value.
// cmd/portbench and the repository benchmark are thin wrappers over this
// package.
//
// Experiments execute on the Runner's bounded worker pool: every cell of a
// plan is submitted in a fixed order, simulated concurrently, and read back
// by (stream, machine), so tables and geomeans are byte-identical at any
// parallelism level.
package experiments

import (
	"fmt"

	"portsim/internal/config"
	"portsim/internal/cpu"
	"portsim/internal/stats"
	"portsim/internal/workload"
)

// T1Baseline renders the baseline machine-parameter table (Table 1). It
// needs no simulation.
func T1Baseline() *stats.Table {
	m := config.Baseline()
	t := stats.NewTable("T1: baseline machine parameters", "parameter", "value")
	add := func(k string, v any) { t.AddRowf(k, v) }
	add("fetch/decode/issue/commit width", fmt.Sprintf("%d/%d/%d/%d",
		m.Core.FetchWidth, m.Core.DecodeWidth, m.Core.IssueWidth, m.Core.CommitWidth))
	add("reorder buffer", m.Core.ROBEntries)
	add("int/fp issue queues", fmt.Sprintf("%d/%d", m.Core.IntIQEntries, m.Core.FPIQEntries))
	add("load/store queues", fmt.Sprintf("%d/%d", m.Core.LoadQueueEntries, m.Core.StoreQueueEntries))
	add("int/fp physical registers", fmt.Sprintf("%d/%d", m.Core.IntPhysRegs, m.Core.FPPhysRegs))
	add("functional units (alu/muldiv/fpadd/fpmul)", fmt.Sprintf("%d/%d/%d/%d",
		m.Core.IntALUs, m.Core.IntMulDivs, m.Core.FPAdders, m.Core.FPMulDivs))
	add("memory ops issued per cycle", m.Core.MemIssuePerCycle)
	add("branch predictor", fmt.Sprintf("%s %d entries, %d-bit history", m.Pred.Kind, m.Pred.TableEntries, m.Pred.HistoryBits))
	add("BTB / RAS", fmt.Sprintf("%d-entry %d-way / %d-entry", m.Pred.BTBEntries, m.Pred.BTBAssoc, m.Pred.RASEntries))
	add("mispredict redirect penalty", m.Core.MispredictPenalty)
	add("L1I", fmt.Sprintf("%dKB %d-way %dB lines, %d cycle", m.L1I.SizeBytes>>10, m.L1I.Assoc, m.L1I.LineBytes, m.L1I.HitLatency))
	add("L1D", fmt.Sprintf("%dKB %d-way %dB lines, %d cycle, %d MSHRs", m.L1D.SizeBytes>>10, m.L1D.Assoc, m.L1D.LineBytes, m.L1D.HitLatency, m.L1D.MSHRs))
	add("L2", fmt.Sprintf("%dMB %d-way %dB lines, %d cycle", m.Mem.L2.SizeBytes>>20, m.Mem.L2.Assoc, m.Mem.L2.LineBytes, m.Mem.L2.HitLatency))
	add("memory latency / interval", fmt.Sprintf("%d / %d cycles", m.Mem.DRAMLatency, m.Mem.DRAMInterval))
	add("ITLB / DTLB", fmt.Sprintf("%d / %d entries, %dKB pages, %d-cycle walk",
		m.ITLB.Entries, m.DTLB.Entries, 1<<(m.DTLB.PageBits-10), m.DTLB.MissPenalty))
	add("L1D fill path", fmt.Sprintf("%d bytes/cycle", m.Ports.FillBytesPerCycle))
	add("baseline data-cache port", fmt.Sprintf("%d port x %d bytes, %d-entry store buffer",
		m.Ports.Count, m.Ports.WidthBytes, m.Ports.StoreBufferEntries))
	return t
}

// tabulate runs the plan and adds a row per stream to t: the stream's
// label, then the entries derive computes from its results by machine. It
// returns the results by [stream][machine] with the table.
func (r *Runner) tabulate(p plan, t *stats.Table, labels []string, derive func(res []*cpu.Result) []stats.Entry) ([][]*cpu.Result, *stats.Table, error) {
	g, err := r.runPlan(p)
	if err != nil {
		return nil, nil, err
	}
	for i, res := range g {
		t.AddEntries([]string{labels[i]}, derive(res)...)
	}
	return g, t, nil
}

// ipcSweep is the table of each workload's IPC on every machine of the
// plan, followed by the entries extra derives from those IPCs. With
// geomean, a last row does the same for each machine's geomean IPC.
func ipcSweep(r *Runner, p plan, t *stats.Table, geomean bool, extra func(ipc []float64) []stats.Entry) ([][]*cpu.Result, *stats.Table, error) {
	row := func(ipc []float64) []stats.Entry {
		es := make([]stats.Entry, len(ipc))
		for j, v := range ipc {
			es[j] = stats.Num(v)
		}
		if extra != nil {
			es = append(es, extra(ipc)...)
		}
		return es
	}
	g, t, err := r.tabulate(p, t, r.spec.Workloads, func(res []*cpu.Result) []stats.Entry {
		ipc := make([]float64, len(res))
		for j, x := range res {
			ipc[j] = x.IPC
		}
		return row(ipc)
	})
	if err != nil || !geomean {
		return g, t, err
	}
	geo := make([]float64, len(p.machines))
	for j := range geo {
		geo[j] = geoMeanIPC(g, j)
	}
	t.AddEntries([]string{"geomean"}, row(geo)...)
	return g, t, nil
}

// header is first followed by one column per value, named by format.
func header(first, format string, values []int) []string {
	h := []string{first}
	for _, v := range values {
		h = append(h, fmt.Sprintf(format, v))
	}
	return h
}

// ipcs are the results' IPCs as entries.
func ipcs(res []*cpu.Result) []stats.Entry {
	es := make([]stats.Entry, len(res))
	for j, x := range res {
		es[j] = stats.Num(x.IPC)
	}
	return es
}

// perInst is n as a fraction of the result's committed instructions.
func perInst(res *cpu.Result, n uint64) float64 {
	return stats.SafeRatio(float64(n), float64(res.Instructions))
}

// perKI is n per 1,000 of the result's committed instructions.
func perKI(res *cpu.Result, n uint64) float64 {
	return stats.SafeRatio(1000*float64(n), float64(res.Instructions))
}

// ofLoads is n as a fraction of the result's loads.
func ofLoads(res *cpu.Result, n uint64) float64 {
	return stats.SafeRatio(float64(n), float64(res.Loads))
}

// l1dMissRate is the fraction of L1D accesses that missed.
func l1dMissRate(s *stats.Set) float64 {
	misses := s.Get(stats.L1DMisses)
	return stats.SafeRatio(float64(misses), float64(misses+s.Get(stats.L1DHits)))
}

// storesPerDrain is the program stores retired per store-buffer write to
// the port.
func storesPerDrain(s *stats.Set) float64 {
	return stats.SafeRatio(float64(s.Get(stats.PortSBInserts)), float64(s.Get(stats.PortSBDrains)))
}

func t2Plan(s Spec) plan { return onWorkloads(s, config.Baseline()) }

// T2Characterisation measures the workload properties the study depends on
// (Table 2).
func T2Characterisation(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	t := stats.NewTable("T2: workload characterisation (baseline single-port machine)",
		"workload", "loads", "stores", "branches", "kernel", "L1D miss", "mispred", "IPC")
	return r.tabulate(t2Plan(r.spec), t, r.spec.Workloads, func(res []*cpu.Result) []stats.Entry {
		b := res[0]
		return []stats.Entry{
			stats.Pct(perInst(b, b.Loads)), stats.Pct(perInst(b, b.Stores)),
			stats.Pct(perInst(b, b.Branches)), stats.Pct(perInst(b, b.KernelInsts)),
			stats.Pct(l1dMissRate(b.Counters)),
			stats.Pct(stats.SafeRatio(float64(b.Mispredicts), float64(b.Branches))),
			stats.Num(b.IPC),
		}
	})
}

// f1Ports are the port counts F1 sweeps.
var f1Ports = []int{1, 2, 4}

func f1Plan(s Spec) plan {
	return onWorkloads(s, variants(f1Ports, "%d-port", func(m *config.Machine, n int) { m.Ports.Count = n })...)
}

// F1PortCount measures IPC against the number of ideal cache ports
// (Figure 1): the motivation that a single port leaves performance behind.
// Its columns are f1Ports' counts and the ratio of the first two.
func F1PortCount(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	h := []string{"workload"}
	for _, n := range f1Ports {
		col := fmt.Sprintf("%d ports", n)
		if n == 1 {
			col = "1 port"
		}
		h = append(h, col)
	}
	h = append(h, fmt.Sprintf("%dp/%dp", f1Ports[0], f1Ports[1]))
	return ipcSweep(r, f1Plan(r.spec), stats.NewTable("F1: IPC vs number of cache ports", h...), true,
		func(ipc []float64) []stats.Entry { return []stats.Entry{stats.Num(stats.SafeRatio(ipc[0], ipc[1]))} })
}

// F2Depths are the store-buffer depths swept by F2.
var F2Depths = []int{1, 2, 4, 8, 16, 32}

func f2Plan(s Spec) plan {
	return onWorkloads(s, variants(F2Depths, "sb-%d", func(m *config.Machine, d int) { m.Ports.StoreBufferEntries = d })...)
}

// F2BufferDepth sweeps the decoupling store-buffer depth on the single-port
// machine (Figure 2): deeper buffering smooths store bursts away from the
// port and then saturates.
func F2BufferDepth(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	t := stats.NewTable("F2: single-port IPC vs store-buffer depth", header("workload", "sb=%d", F2Depths)...)
	return ipcSweep(r, f2Plan(r.spec), t, true, nil)
}

// F3Widths are the port widths swept.
var F3Widths = []int{8, 16, 32}

func f3Plan(s Spec) plan {
	return onWorkloads(s, variants(F3Widths, "naive-%dB", func(m *config.Machine, wd int) { m.Ports.WidthBytes = wd })...)
}

// F3PortWidth widens the single port WITHOUT load-all line buffers or store
// combining (Figure 3). The expected result is the paper's motivating
// observation: width alone is wasted — scalar loads and stores cannot use
// the extra bytes, so the techniques of F4/F5 are needed to convert width
// into bandwidth.
func F3PortWidth(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	t := stats.NewTable("F3: single-port IPC vs naive port width (no load-all, no combining)",
		header("workload", "%dB", F3Widths)...)
	return ipcSweep(r, f3Plan(r.spec), t, false, nil)
}

// F4Buffers are the line-buffer counts swept.
var F4Buffers = []int{0, 1, 2, 4, 8}

func f4Plan(s Spec) plan {
	return onWorkloads(s, variants(F4Buffers, "loadall-%d", func(m *config.Machine, n int) {
		m.Ports.WidthBytes = 32
		m.Ports.LineBuffers = n
	})...)
}

// F4LineBuffers enables the load-all policy on a single 32-byte port and
// sweeps the number of line buffers (Figure 4).
func F4LineBuffers(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	h := []string{"workload"}
	for _, n := range F4Buffers {
		h = append(h, fmt.Sprintf("lb=%d", n), "hit")
	}
	t := stats.NewTable("F4: load-all line buffers on a single 32B port (IPC and buffer hit rate)", h...)
	return r.tabulate(f4Plan(r.spec), t, r.spec.Workloads, func(res []*cpu.Result) []stats.Entry {
		var es []stats.Entry
		for _, x := range res {
			es = append(es, stats.Num(x.IPC), stats.Pct(ofLoads(x, x.Counters.Get(stats.PortLoadsFromLineBuffer))))
		}
		return es
	})
}

// F5Depths are the buffer depths compared with combining on and off.
var F5Depths = []int{8, 16}

func f5Plan(s Spec) plan {
	var ms []config.Machine
	for _, d := range F5Depths {
		for _, comb := range []bool{false, true} {
			m := config.Baseline()
			m.Name = fmt.Sprintf("comb-%v-%d", comb, d)
			m.Ports.WidthBytes = 32
			m.Ports.StoreBufferEntries = d
			m.Ports.StoreCombining = comb
			ms = append(ms, m)
		}
	}
	return onWorkloads(s, ms...)
}

// F5StoreCombining measures store combining on a single 32-byte port
// (Figure 5): IPC with combining off and on at each depth, and the number
// of program stores retired per port write at the deepest with combining.
func F5StoreCombining(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	h := []string{"workload"}
	for _, d := range F5Depths {
		h = append(h, fmt.Sprintf("off sb=%d", d), fmt.Sprintf("on sb=%d", d))
	}
	h = append(h, fmt.Sprintf("stores/drain (on,%d)", F5Depths[len(F5Depths)-1]))
	t := stats.NewTable("F5: store combining on a single 32B port", h...)
	return r.tabulate(f5Plan(r.spec), t, r.spec.Workloads, func(res []*cpu.Result) []stats.Entry {
		return append(ipcs(res), stats.Num(storesPerDrain(res[len(res)-1].Counters)))
	})
}

// F6Row is the headline comparison for one workload.
type F6Row struct {
	Workload   string
	SingleIPC  float64 // plain single port
	BestIPC    float64 // single wide port + buffering + load-all + combining
	DualIPC    float64 // dual-ported reference
	BestOfDual float64 // BestIPC / DualIPC
}

func f6Plan(s Spec) plan { return onWorkloads(s, headlineMachines()...) }

// F6Headline reproduces the paper's headline result (Figure 6): the
// technique-equipped single-ported cache against the dual-ported reference.
// The paper reports 91%; EXPERIMENTS.md records the measured ratio. Its
// rows are read back from its table.
func F6Headline(r *Runner) ([]F6Row, *stats.Table, error) {
	t := stats.NewTable("F6: headline — single port + techniques vs dual port",
		"workload", "single", "best-single", "dual", "single/dual", "best/dual")
	_, t, err := ipcSweep(r, f6Plan(r.spec), t, true, func(ipc []float64) []stats.Entry {
		return []stats.Entry{stats.Pct(stats.SafeRatio(ipc[0], ipc[2])), stats.Pct(stats.SafeRatio(ipc[1], ipc[2]))}
	})
	if err != nil {
		return nil, nil, err
	}
	rows := make([]F6Row, len(r.spec.Workloads))
	for i, w := range r.spec.Workloads {
		v := func(col string) float64 { x, _ := t.Value(col, w); return x }
		rows[i] = F6Row{Workload: w, SingleIPC: v("single"), BestIPC: v("best-single"), DualIPC: v("dual"), BestOfDual: v("best/dual")}
	}
	return rows, t, nil
}

func t3Plan(s Spec) plan { return onWorkloads(s, config.BestSingle()) }

// T3PortUtilisation accounts for where the best-single machine's loads come
// from and what occupies its one port (Table 3): the refill share is the
// fraction of port grants consumed by refills.
func T3PortUtilisation(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	t := stats.NewTable("T3: best-single port accounting",
		"workload", "loads cache", "loads line-buf", "loads store-buf", "stores/drain", "port util", "refill share")
	return r.tabulate(t3Plan(r.spec), t, r.spec.Workloads, func(res []*cpu.Result) []stats.Entry {
		b, s := res[0], res[0].Counters
		grants := float64(s.Get(stats.PortGrants))
		return []stats.Entry{
			stats.Pct(ofLoads(b, s.Get(stats.PortLoadsFromCache))),
			stats.Pct(ofLoads(b, s.Get(stats.PortLoadsFromLineBuffer))),
			stats.Pct(ofLoads(b, s.Get(stats.PortLoadsFromStoreBuffer))),
			stats.Num(storesPerDrain(s)),
			stats.Pct(stats.SafeRatio(grants, float64(s.Get(stats.PortCycles)))),
			stats.Pct(stats.SafeRatio(float64(s.Get(stats.PortRefillCycles)), grants)),
		}
	})
}

// f7Points are F7's kernel intensities of the database workload.
var f7Points = []struct {
	label string
	every int // kernel entry cadence; 0 disables
}{
	{"none", 0},
	{"low", 16000},
	{"medium", 4000},
	{"high", 1200},
}

func f7Plan(Spec) plan {
	streams := make([]planStream, len(f7Points))
	for i, pt := range f7Points {
		s := named("database")
		s.workload = "database-k-" + pt.label
		s.prof.Name = s.workload
		if pt.every == 0 {
			s.prof.Kernel = workload.KernelSpec{}
		} else {
			s.prof.Kernel.EveryMean = pt.every
		}
		streams[i] = s
	}
	return plan{streams: streams, machines: headlineMachines()}
}

// F7KernelIntensity varies the OS intensity of the database workload and
// measures how much the techniques recover at each level (Figure 7): the
// technique gain is best/single, and the gap recovered is
// (best-single)/(dual-single). The expected shape: kernel episodes disrupt
// spatial locality and thrash the line buffers, so the techniques help
// least at the highest OS intensity.
func F7KernelIntensity(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	t := stats.NewTable("F7: technique gain vs kernel intensity (database workload)",
		"intensity", "kernel frac", "single", "best-single", "dual", "best/single", "gap recovered")
	labels := make([]string, len(f7Points))
	for i, pt := range f7Points {
		labels[i] = pt.label
	}
	return r.tabulate(f7Plan(r.spec), t, labels, func(res []*cpu.Result) []stats.Entry {
		single, best, dual := res[0], res[1], res[2]
		recovered := 0.0
		if gap := dual.IPC - single.IPC; gap > 0 {
			recovered = (best.IPC - single.IPC) / gap
		}
		return []stats.Entry{stats.Pct(perInst(single, single.KernelInsts)),
			stats.Num(single.IPC), stats.Num(best.IPC), stats.Num(dual.IPC),
			stats.Num(stats.SafeRatio(best.IPC, single.IPC)), stats.Pct(recovered)}
	})
}

// A1Ablation isolates each technique on the single-port machine (the
// design-choice ablation DESIGN.md calls out): deep buffering alone,
// combining alone, load-all alone, and all combined, against the plain
// single port and the dual-ported reference.
func A1Ablation(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	return ablationTable(r, "A1: technique ablation (geomean IPC over all workloads)", a1Configs())
}

// ablation is one row of A1 or A2: a machine and its label.
type ablation struct {
	label string
	m     config.Machine
}

// a1Configs are A1's rows: each technique alone, all of them together,
// and the plain single and dual ports around them.
func a1Configs() []ablation {
	buffered := config.Baseline()
	buffered.Name = "buffered"
	buffered.Ports.StoreBufferEntries = 16

	combining := config.Baseline()
	combining.Name = "combining"
	combining.Ports.WidthBytes = 32
	combining.Ports.StoreBufferEntries = 16
	combining.Ports.StoreCombining = true

	loadall := config.Baseline()
	loadall.Name = "load-all"
	loadall.Ports.WidthBytes = 32
	loadall.Ports.LineBuffers = 4

	return []ablation{
		{"single (none)", config.Baseline()},
		{"+ deep store buffer", buffered},
		{"+ combining (wide)", combining},
		{"+ load-all (wide)", loadall},
		{"all techniques", config.BestSingle()},
		{"dual port", config.DualPort()},
	}
}

func a1Plan(s Spec) plan { return dualLed(s, a1Configs()) }

// dualLed is the plan of an ablation table, submitted machine by machine:
// the dual port first, for the ratio column, then every row's machine.
// The leading column repeats cells of the table's own dual-port row, and
// the repeats join the in-flight or memoised simulation, so they are free.
func dualLed(s Spec, configs []ablation) plan {
	p := onWorkloads(s, config.DualPort())
	for _, c := range configs {
		p.machines = append(p.machines, c.m)
	}
	p.byMachine = true
	return p
}

// ablationTable runs an ablation's plan and derives each row's geomean IPC
// and its ratio to the leading dual-port column.
func ablationTable(r *Runner, title string, configs []ablation) ([][]*cpu.Result, *stats.Table, error) {
	g, err := r.runPlan(dualLed(r.spec, configs))
	if err != nil {
		return nil, nil, err
	}
	dualGeo := geoMeanIPC(g, 0)
	t := stats.NewTable(title, "configuration", "geomean IPC", "of dual")
	for j, cfg := range configs {
		geo := geoMeanIPC(g, j+1)
		t.AddEntries([]string{cfg.label}, stats.Num(geo), stats.Pct(stats.SafeRatio(geo, dualGeo)))
	}
	return g, t, nil
}

// A2Banking compares line-interleaved banking — the classic cheap
// alternative to true multi-porting — against the paper's techniques and
// the dual-ported reference (extension experiment; see DESIGN.md). Expected
// shape: banking recovers much of the dual-port gap because most concurrent
// accesses hit distinct lines, but same-line bursts (exactly the spatial
// locality load-all exploits) still conflict.
func A2Banking(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	return ablationTable(r, "A2: banking vs multi-porting vs the paper's techniques (geomean IPC)", a2Configs())
}

// a2Configs are A2's rows: banked caches between the single and dual ports.
func a2Configs() []ablation {
	return []ablation{
		{"single port", config.Baseline()},
		{"2 banks", config.Banked(2)},
		{"4 banks", config.Banked(4)},
		{"8 banks", config.Banked(8)},
		{"best-single (techniques)", config.BestSingle()},
		{"dual port", config.DualPort()},
	}
}

func a2Plan(s Spec) plan { return dualLed(s, a2Configs()) }

// A3Prefetch measures next-line prefetching on the single-ported machine
// (extension experiment): prefetch probes ride in idle port slots, so the
// benefit of prefetching is itself gated by port bandwidth — streaming
// workloads gain, pointer-chasing ones see mostly wasted fills. Accuracy
// is the single port's useful prefetches per prefetch issued.
func A3Prefetch(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	t := stats.NewTable("A3: next-line prefetching through idle port slots",
		"workload", "single", "single+pf", "best+pf", "pf accuracy")
	return r.tabulate(a3Plan(r.spec), t, r.spec.Workloads, func(res []*cpu.Result) []stats.Entry {
		s := res[1].Counters
		return append(ipcs(res), stats.Pct(stats.SafeRatio(float64(s.Get(stats.PortUsefulPrefetches)), float64(s.Get(stats.PortPrefetches)))))
	})
}

func a3Plan(s Spec) plan {
	pf := config.Baseline()
	pf.Name = "prefetch"
	pf.Ports.PrefetchNextLine = true
	pf.Ports.PrefetchDegree = 1

	bestPf := config.BestSingle()
	bestPf.Name = "best-prefetch"
	bestPf.Ports.PrefetchNextLine = true
	bestPf.Ports.PrefetchDegree = 1
	return onWorkloads(s, config.Baseline(), pf, bestPf)
}

func a4Plan(s Spec) plan {
	spec := config.Baseline()
	spec.Name = "mem-speculation"
	spec.Core.SpeculativeLoads = true
	spec.Core.ViolationPenalty = 8
	return onWorkloads(s, config.Baseline(), spec)
}

// A4MemSpeculation compares conservative load/store disambiguation (loads
// wait for every older store address) against memory-dependence speculation
// (loads issue past unknown stores and squash on a real conflict) on the
// single-ported baseline (extension experiment).
func A4MemSpeculation(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	t := stats.NewTable("A4: conservative vs speculative memory disambiguation (single port)",
		"workload", "conservative", "speculative", "speedup", "violations/kI")
	return r.tabulate(a4Plan(r.spec), t, r.spec.Workloads, func(res []*cpu.Result) []stats.Entry {
		cons, sp := res[0], res[1]
		return append(ipcs(res), stats.Num(stats.SafeRatio(sp.IPC, cons.IPC)),
			stats.Num(perKI(sp, sp.Counters.Get(stats.LSQViolations))))
	})
}

func a5Plan(s Spec) plan {
	wt := config.Baseline()
	wt.Name = "write-through"
	wt.L1D.WriteThrough = true

	wtc := config.Baseline()
	wtc.Name = "write-through-combining"
	wtc.L1D.WriteThrough = true
	wtc.Ports.WidthBytes = 32
	wtc.Ports.StoreBufferEntries = 16
	wtc.Ports.StoreCombining = true
	return onWorkloads(s, config.Baseline(), wt, wtc)
}

// A5WritePolicy contrasts write-back against write-through/no-allocate on
// the single-ported machine (extension experiment). Write-through multiplies
// the store traffic reaching the L2 — the design point where combining write
// buffers were historically indispensable — so the expected shape is:
// write-back >= write-through, with combining recovering part of the
// write-through loss.
func A5WritePolicy(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	t := stats.NewTable("A5: write-back vs write-through/no-allocate (single port)",
		"workload", "write-back", "write-through", "WT+combining", "WB dram/kI", "WT dram/kI")
	return r.tabulate(a5Plan(r.spec), t, r.spec.Workloads, func(res []*cpu.Result) []stats.Entry {
		wb, wt := res[0], res[1]
		return append(ipcs(res), stats.Num(perKI(wb, wb.Counters.Get(stats.DRAMAccesses))),
			stats.Num(perKI(wt, wt.Counters.Get(stats.DRAMAccesses))))
	})
}

// a6Levels are the compress multiprogramming levels A6 sweeps, switching
// process every 5000 instructions.
var a6Levels = []int{1, 2, 4, 8}

func a6Plan(Spec) plan {
	streams := make([]planStream, len(a6Levels))
	for i, n := range a6Levels {
		s := named("compress")
		s.workload = fmt.Sprintf("compress-x%d", n)
		s.processes, s.quantum = n, 5000
		streams[i] = s
	}
	return plan{streams: streams, machines: headlineMachines()}
}

// A6Multiprogramming sweeps the multiprogramming level of the compress
// workload (extension experiment): context switches between disjoint
// address spaces cold-start the caches and TLBs, shifting the machine from
// a port-bound to a miss-bound regime and shrinking what the port
// techniques can recover — the same direction as F7's kernel-intensity
// result, by a different mechanism. Its miss columns are the single
// port's.
func A6Multiprogramming(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	t := stats.NewTable("A6: multiprogramming level (compress, 5k-instruction quanta)",
		"processes", "single", "best-single", "dual", "L1D miss", "dtlb miss/kI")
	labels := make([]string, len(a6Levels))
	for i, n := range a6Levels {
		labels[i] = fmt.Sprint(n)
	}
	return r.tabulate(a6Plan(r.spec), t, labels, func(res []*cpu.Result) []stats.Entry {
		single := res[0]
		return append(ipcs(res), stats.Pct(l1dMissRate(single.Counters)),
			stats.Num(perKI(single, single.Counters.Get(stats.DTLBMisses))))
	})
}

func a7Plan(s Spec) plan {
	sf := config.Baseline()
	sf.Name = "stores-first"
	sf.Ports.StoresFirst = true
	return onWorkloads(s, config.Baseline(), sf)
}

// A7ArbitrationPolicy compares load-priority port arbitration (the paper's
// choice) against store-priority on the single-ported machine (extension
// experiment). Loads sit on the critical dependence path while committed
// stores are already architecturally done, so loads-first should win.
func A7ArbitrationPolicy(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	t := stats.NewTable("A7: port arbitration — loads-first vs stores-first (single port)",
		"workload", "loads-first", "stores-first", "ratio")
	return r.tabulate(a7Plan(r.spec), t, r.spec.Workloads, func(res []*cpu.Result) []stats.Entry {
		return append(ipcs(res), stats.Num(stats.SafeRatio(res[1].IPC, res[0].IPC)))
	})
}

func t4Plan(s Spec) plan {
	p := onWorkloads(s, headlineMachines()...)
	p.byMachine = true
	return p
}

// T4GrantDistribution shows how many port slots each cycle actually uses on
// the single-, best- and dual-ported machines (Table 4): the burstiness
// that makes the second port valuable is visible as the mass at the maximum
// grant count.
func T4GrantDistribution(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	t := stats.NewTable("T4: per-cycle port-grant distribution",
		"machine", "workload", "0 grants", "1 grant", "2 grants")
	p := t4Plan(r.spec)
	g, err := r.runPlan(p)
	if err != nil {
		return nil, nil, err
	}
	for j, m := range p.machines {
		for i, w := range r.spec.Workloads {
			s := g[i][j].Counters
			cycles := float64(s.Get(stats.PortCycles))
			// Grant counts above the machine's port count stay absent.
			es := make([]stats.Entry, 3)
			for k := 0; k <= min(m.Ports.Count, 2); k++ {
				es[k] = stats.Pct(stats.SafeRatio(float64(s.Get(stats.GrantBucket(k))), cycles))
			}
			t.AddEntries([]string{m.Name, w}, es...)
		}
	}
	return g, t, nil
}

func a8Plan(s Spec) plan {
	wp := config.Baseline()
	wp.Name = "wrong-path-fetch"
	wp.Core.WrongPathFetch = true
	return onWorkloads(s, config.Baseline(), wp)
}

// A8WrongPathFetch turns on wrong-path instruction fetching during branch
// resolution (extension experiment): the front end keeps pulling the
// predicted-but-wrong path into the L1I. The effect cuts both ways —
// pollution costs misses, but wrong and correct paths often reconverge, so
// the wrong-path lines act as accidental instruction prefetch; the net IPC
// effect is small while the extra cache traffic is real.
func A8WrongPathFetch(r *Runner) ([][]*cpu.Result, *stats.Table, error) {
	t := stats.NewTable("A8: idealised vs wrong-path-polluting fetch (single port)",
		"workload", "idealised", "wrong-path", "ratio", "extra L1I miss/kI")
	return r.tabulate(a8Plan(r.spec), t, r.spec.Workloads, func(res []*cpu.Result) []stats.Entry {
		ideal, pol := res[0], res[1]
		extra := stats.SafeRatio(
			1000*(float64(pol.Counters.Get(stats.L1IMisses))-float64(ideal.Counters.Get(stats.L1IMisses))),
			float64(pol.Instructions))
		return append(ipcs(res), stats.Num(stats.SafeRatio(pol.IPC, ideal.IPC)), stats.Num(extra))
	})
}
