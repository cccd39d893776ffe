// Package experiments implements the paper's evaluation (see DESIGN.md's
// experiment index). Suite lists the experiments in campaign order. Each
// one declares a plan, its grid of streams × machines, once: the plan
// gives the cells it submits, which portbench counts and checks flags
// against before anything runs, and its driver runs the plan and derives a
// paper-style plain-text table plus typed rows for programmatic checks.
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

// T2Row characterises one workload on the baseline machine.
type T2Row struct {
	Workload      string
	LoadFrac      float64
	StoreFrac     float64
	BranchFrac    float64
	KernelFrac    float64
	L1DMissRate   float64
	MispredictPct float64
	BaselineIPC   float64
}

func t2Plan(s Spec) plan { return onWorkloads(s, config.Baseline()) }

// T2Characterisation measures the workload properties the study depends on
// (Table 2).
func T2Characterisation(r *Runner) ([]T2Row, *stats.Table, error) {
	t := stats.NewTable("T2: workload characterisation (baseline single-port machine)",
		"workload", "loads", "stores", "branches", "kernel", "L1D miss", "mispred", "IPC")
	g, err := r.runPlan(t2Plan(r.spec))
	if err != nil {
		return nil, nil, err
	}
	var rows []T2Row
	for i, w := range r.spec.Workloads {
		res := g[i][0]
		n := float64(res.Instructions)
		s := res.Counters
		row := T2Row{
			Workload:      w,
			LoadFrac:      stats.SafeRatio(float64(res.Loads), n),
			StoreFrac:     stats.SafeRatio(float64(res.Stores), n),
			BranchFrac:    stats.SafeRatio(float64(res.Branches), n),
			KernelFrac:    stats.SafeRatio(float64(res.KernelInsts), n),
			L1DMissRate:   stats.SafeRatio(float64(s.Get(stats.L1DMisses)), float64(s.Get(stats.L1DMisses)+s.Get(stats.L1DHits))),
			MispredictPct: stats.SafeRatio(float64(res.Mispredicts), float64(res.Branches)),
			BaselineIPC:   res.IPC,
		}
		rows = append(rows, row)
		t.AddRow(w, stats.Percent(row.LoadFrac), stats.Percent(row.StoreFrac),
			stats.Percent(row.BranchFrac), stats.Percent(row.KernelFrac),
			stats.Percent(row.L1DMissRate), stats.Percent(row.MispredictPct),
			stats.Cell(row.BaselineIPC))
	}
	return rows, t, nil
}

// F1Row holds one workload's IPC across port counts.
type F1Row struct {
	Workload string
	IPC      map[int]float64 // port count -> IPC
}

// f1Ports are the port counts F1 sweeps.
var f1Ports = []int{1, 2, 4}

func f1Plan(s Spec) plan {
	return onWorkloads(s, variants(f1Ports, "%d-port", func(m *config.Machine, n int) { m.Ports.Count = n })...)
}

// F1PortCount measures IPC against the number of ideal cache ports
// (Figure 1): the motivation that a single port leaves performance behind.
func F1PortCount(r *Runner) ([]F1Row, *stats.Table, error) {
	t := stats.NewTable("F1: IPC vs number of cache ports",
		"workload", "1 port", "2 ports", "4 ports", "1p/2p")
	g, err := r.runPlan(f1Plan(r.spec))
	if err != nil {
		return nil, nil, err
	}
	var rows []F1Row
	for i, w := range r.spec.Workloads {
		row := F1Row{Workload: w, IPC: map[int]float64{}}
		for j, n := range f1Ports {
			row.IPC[n] = g[i][j].IPC
		}
		rows = append(rows, row)
		t.AddRow(w, stats.Cell(row.IPC[1]), stats.Cell(row.IPC[2]), stats.Cell(row.IPC[4]),
			stats.Cell(stats.SafeRatio(row.IPC[1], row.IPC[2])))
	}
	g1, g2, g4 := geoMeanIPC(g, 0), geoMeanIPC(g, 1), geoMeanIPC(g, 2)
	t.AddRow("geomean", stats.Cell(g1), stats.Cell(g2), stats.Cell(g4), stats.Cell(stats.SafeRatio(g1, g2)))
	return rows, t, nil
}

// F2Row holds the buffer-depth sweep for one workload.
type F2Row struct {
	Workload string
	IPC      map[int]float64 // store-buffer depth -> IPC
}

// F2Depths are the store-buffer depths swept by F2.
var F2Depths = []int{1, 2, 4, 8, 16, 32}

func f2Plan(s Spec) plan {
	return onWorkloads(s, variants(F2Depths, "sb-%d", func(m *config.Machine, d int) { m.Ports.StoreBufferEntries = d })...)
}

// F2BufferDepth sweeps the decoupling store-buffer depth on the single-port
// machine (Figure 2): deeper buffering smooths store bursts away from the
// port and then saturates.
func F2BufferDepth(r *Runner) ([]F2Row, *stats.Table, error) {
	return ipcSweep[F2Row](r, f2Plan(r.spec), F2Depths, "F2: single-port IPC vs store-buffer depth", "sb=%d", true)
}

// ipcSweep runs a sweep's plan, one machine per value, and derives a row
// of IPCs per workload under columns named by format, plus a geomean row
// when asked.
func ipcSweep[R F2Row | F3Row](r *Runner, p plan, values []int, title, format string, geomean bool) ([]R, *stats.Table, error) {
	header := []string{"workload"}
	for _, v := range values {
		header = append(header, fmt.Sprintf(format, v))
	}
	t := stats.NewTable(title, header...)
	g, err := r.runPlan(p)
	if err != nil {
		return nil, nil, err
	}
	var rows []R
	for i, w := range r.spec.Workloads {
		row := F2Row{Workload: w, IPC: map[int]float64{}}
		rowCells := []string{w}
		for j, v := range values {
			row.IPC[v] = g[i][j].IPC
			rowCells = append(rowCells, stats.Cell(g[i][j].IPC))
		}
		rows = append(rows, R(row))
		t.AddRow(rowCells...)
	}
	if geomean {
		rowCells := []string{"geomean"}
		for j := range values {
			rowCells = append(rowCells, stats.Cell(geoMeanIPC(g, j)))
		}
		t.AddRow(rowCells...)
	}
	return rows, t, nil
}

// F3Row holds the naive-wide-port sweep for one workload.
type F3Row struct {
	Workload string
	IPC      map[int]float64 // port width -> IPC
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
func F3PortWidth(r *Runner) ([]F3Row, *stats.Table, error) {
	return ipcSweep[F3Row](r, f3Plan(r.spec), F3Widths,
		"F3: single-port IPC vs naive port width (no load-all, no combining)", "%dB", false)
}

// F4Row holds the load-all sweep for one workload.
type F4Row struct {
	Workload string
	IPC      map[int]float64 // line-buffer count -> IPC
	HitRate  map[int]float64 // line-buffer count -> buffer hit rate
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
func F4LineBuffers(r *Runner) ([]F4Row, *stats.Table, error) {
	header := []string{"workload"}
	for _, n := range F4Buffers {
		header = append(header, fmt.Sprintf("lb=%d", n), "hit")
	}
	t := stats.NewTable("F4: load-all line buffers on a single 32B port (IPC and buffer hit rate)", header...)
	g, err := r.runPlan(f4Plan(r.spec))
	if err != nil {
		return nil, nil, err
	}
	var rows []F4Row
	for i, w := range r.spec.Workloads {
		row := F4Row{Workload: w, IPC: map[int]float64{}, HitRate: map[int]float64{}}
		rowCells := []string{w}
		for j, n := range F4Buffers {
			res := g[i][j]
			row.IPC[n] = res.IPC
			row.HitRate[n] = stats.SafeRatio(float64(res.Counters.Get(stats.PortLoadsFromLineBuffer)), float64(res.Loads))
			rowCells = append(rowCells, stats.Cell(res.IPC), stats.Percent(row.HitRate[n]))
		}
		rows = append(rows, row)
		t.AddRow(rowCells...)
	}
	return rows, t, nil
}

// F5Row holds the store-combining comparison for one workload.
type F5Row struct {
	Workload       string
	IPCOff, IPCOn  map[int]float64 // depth -> IPC
	StoresPerDrain map[int]float64 // depth -> program stores per port write (combining on)
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
// (Figure 5): IPC and the number of program stores retired per port write.
func F5StoreCombining(r *Runner) ([]F5Row, *stats.Table, error) {
	t := stats.NewTable("F5: store combining on a single 32B port",
		"workload", "off sb=8", "on sb=8", "off sb=16", "on sb=16", "stores/drain (on,16)")
	p := f5Plan(r.spec)
	g, err := r.runPlan(p)
	if err != nil {
		return nil, nil, err
	}
	var rows []F5Row
	for i, w := range r.spec.Workloads {
		row := F5Row{Workload: w, IPCOff: map[int]float64{}, IPCOn: map[int]float64{}, StoresPerDrain: map[int]float64{}}
		for j, m := range p.machines {
			res, d := g[i][j], m.Ports.StoreBufferEntries
			if !m.Ports.StoreCombining {
				row.IPCOff[d] = res.IPC
				continue
			}
			row.IPCOn[d] = res.IPC
			s := res.Counters
			if drains := s.Get(stats.PortSBDrains); drains > 0 {
				row.StoresPerDrain[d] = stats.SafeRatio(float64(s.Get(stats.PortSBInserts)), float64(drains))
			}
		}
		rows = append(rows, row)
		t.AddRow(w, stats.Cell(row.IPCOff[8]), stats.Cell(row.IPCOn[8]),
			stats.Cell(row.IPCOff[16]), stats.Cell(row.IPCOn[16]),
			stats.Cell(row.StoresPerDrain[16]))
	}
	return rows, t, nil
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
// The paper reports 91%; EXPERIMENTS.md records the measured ratio.
func F6Headline(r *Runner) ([]F6Row, *stats.Table, error) {
	t := stats.NewTable("F6: headline — single port + techniques vs dual port",
		"workload", "single", "best-single", "dual", "single/dual", "best/dual")
	g, err := r.runPlan(f6Plan(r.spec))
	if err != nil {
		return nil, nil, err
	}
	var rows []F6Row
	for i, w := range r.spec.Workloads {
		s, b, d := g[i][0], g[i][1], g[i][2]
		row := F6Row{Workload: w, SingleIPC: s.IPC, BestIPC: b.IPC, DualIPC: d.IPC,
			BestOfDual: stats.SafeRatio(b.IPC, d.IPC)}
		rows = append(rows, row)
		t.AddRow(w, stats.Cell(s.IPC), stats.Cell(b.IPC), stats.Cell(d.IPC),
			stats.Percent(stats.SafeRatio(s.IPC, d.IPC)), stats.Percent(row.BestOfDual))
	}
	gs, gb, gd := geoMeanIPC(g, 0), geoMeanIPC(g, 1), geoMeanIPC(g, 2)
	t.AddRow("geomean", stats.Cell(gs), stats.Cell(gb), stats.Cell(gd),
		stats.Percent(stats.SafeRatio(gs, gd)), stats.Percent(stats.SafeRatio(gb, gd)))
	return rows, t, nil
}

// T3Row is the port-utilisation accounting for one workload on the
// best-single machine.
type T3Row struct {
	Workload        string
	LoadsFromCache  float64
	LoadsFromLB     float64
	LoadsFromSB     float64
	StoresPerDrain  float64
	PortUtilisation float64
	RefillShare     float64 // fraction of port grants consumed by refills
}

func t3Plan(s Spec) plan { return onWorkloads(s, config.BestSingle()) }

// T3PortUtilisation accounts for where the best-single machine's loads come
// from and what occupies its one port (Table 3).
func T3PortUtilisation(r *Runner) ([]T3Row, *stats.Table, error) {
	t := stats.NewTable("T3: best-single port accounting",
		"workload", "loads cache", "loads line-buf", "loads store-buf", "stores/drain", "port util", "refill share")
	g, err := r.runPlan(t3Plan(r.spec))
	if err != nil {
		return nil, nil, err
	}
	var rows []T3Row
	for i, w := range r.spec.Workloads {
		res := g[i][0]
		s := res.Counters
		loads := float64(res.Loads)
		grants := float64(s.Get(stats.PortGrants))
		row := T3Row{
			Workload:        w,
			LoadsFromCache:  stats.SafeRatio(float64(s.Get(stats.PortLoadsFromCache)), loads),
			LoadsFromLB:     stats.SafeRatio(float64(s.Get(stats.PortLoadsFromLineBuffer)), loads),
			LoadsFromSB:     stats.SafeRatio(float64(s.Get(stats.PortLoadsFromStoreBuffer)), loads),
			PortUtilisation: stats.SafeRatio(grants, float64(s.Get(stats.PortCycles))),
			RefillShare:     stats.SafeRatio(float64(s.Get(stats.PortRefillCycles)), grants),
		}
		if drains := s.Get(stats.PortSBDrains); drains > 0 {
			row.StoresPerDrain = stats.SafeRatio(float64(s.Get(stats.PortSBInserts)), float64(drains))
		}
		rows = append(rows, row)
		t.AddRow(w, stats.Percent(row.LoadsFromCache), stats.Percent(row.LoadsFromLB),
			stats.Percent(row.LoadsFromSB), stats.Cell(row.StoresPerDrain),
			stats.Percent(row.PortUtilisation), stats.Percent(row.RefillShare))
	}
	return rows, t, nil
}

// F7Row holds one kernel-intensity point.
type F7Row struct {
	Label         string
	KernelFrac    float64
	SingleIPC     float64
	BestIPC       float64
	DualIPC       float64
	TechniqueGain float64 // BestIPC / SingleIPC
	GapRecovered  float64 // (Best-Single)/(Dual-Single)
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
// measures how much the techniques recover at each level (Figure 7). The
// expected shape: kernel episodes disrupt spatial locality and thrash the
// line buffers, so the techniques help least at the highest OS intensity.
func F7KernelIntensity(r *Runner) ([]F7Row, *stats.Table, error) {
	t := stats.NewTable("F7: technique gain vs kernel intensity (database workload)",
		"intensity", "kernel frac", "single", "best-single", "dual", "best/single", "gap recovered")
	g, err := r.runPlan(f7Plan(r.spec))
	if err != nil {
		return nil, nil, err
	}
	var rows []F7Row
	for i, pt := range f7Points {
		single, best, dual := g[i][0], g[i][1], g[i][2]
		row := F7Row{
			Label:         pt.label,
			KernelFrac:    stats.SafeRatio(float64(single.KernelInsts), float64(single.Instructions)),
			SingleIPC:     single.IPC,
			BestIPC:       best.IPC,
			DualIPC:       dual.IPC,
			TechniqueGain: stats.SafeRatio(best.IPC, single.IPC),
		}
		if gap := dual.IPC - single.IPC; gap > 0 {
			row.GapRecovered = (best.IPC - single.IPC) / gap
		}
		rows = append(rows, row)
		t.AddRow(pt.label, stats.Percent(row.KernelFrac), stats.Cell(row.SingleIPC),
			stats.Cell(row.BestIPC), stats.Cell(row.DualIPC), stats.Cell(row.TechniqueGain),
			stats.Percent(row.GapRecovered))
	}
	return rows, t, nil
}

// A1Row is one ablation configuration's geomean IPC.
type A1Row struct {
	Label   string
	Geomean float64
	OfDual  float64
}

// A1Ablation isolates each technique on the single-port machine (the
// design-choice ablation DESIGN.md calls out): deep buffering alone,
// combining alone, load-all alone, and all combined, against the plain
// single port and the dual-ported reference.
func A1Ablation(r *Runner) ([]A1Row, *stats.Table, error) {
	return ablationTable[A1Row](r, "A1: technique ablation (geomean IPC over all workloads)", a1Configs())
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
func ablationTable[R A1Row | A2Row](r *Runner, title string, configs []ablation) ([]R, *stats.Table, error) {
	g, err := r.runPlan(dualLed(r.spec, configs))
	if err != nil {
		return nil, nil, err
	}
	dualGeo := geoMeanIPC(g, 0)
	t := stats.NewTable(title, "configuration", "geomean IPC", "of dual")
	var rows []R
	for j, cfg := range configs {
		row := A1Row{Label: cfg.label, Geomean: geoMeanIPC(g, j+1)}
		row.OfDual = stats.SafeRatio(row.Geomean, dualGeo)
		rows = append(rows, R(row))
		t.AddRow(cfg.label, stats.Cell(row.Geomean), stats.Percent(row.OfDual))
	}
	return rows, t, nil
}

// A2Row is one configuration of the banking comparison.
type A2Row struct {
	Label   string
	Geomean float64
	OfDual  float64
}

// A2Banking compares line-interleaved banking — the classic cheap
// alternative to true multi-porting — against the paper's techniques and
// the dual-ported reference (extension experiment; see DESIGN.md). Expected
// shape: banking recovers much of the dual-port gap because most concurrent
// accesses hit distinct lines, but same-line bursts (exactly the spatial
// locality load-all exploits) still conflict.
func A2Banking(r *Runner) ([]A2Row, *stats.Table, error) {
	return ablationTable[A2Row](r, "A2: banking vs multi-porting vs the paper's techniques (geomean IPC)", a2Configs())
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

// A3Row is one prefetch configuration's result for one workload.
type A3Row struct {
	Workload  string
	BaseIPC   float64 // single port, no prefetch
	PfIPC     float64 // single port, next-line prefetch
	BestPfIPC float64 // best-single plus prefetch
	Accuracy  float64 // useful prefetches / prefetches issued (single port)
}

// A3Prefetch measures next-line prefetching on the single-ported machine
// (extension experiment): prefetch probes ride in idle port slots, so the
// benefit of prefetching is itself gated by port bandwidth — streaming
// workloads gain, pointer-chasing ones see mostly wasted fills.
func A3Prefetch(r *Runner) ([]A3Row, *stats.Table, error) {
	t := stats.NewTable("A3: next-line prefetching through idle port slots",
		"workload", "single", "single+pf", "best+pf", "pf accuracy")
	g, err := r.runPlan(a3Plan(r.spec))
	if err != nil {
		return nil, nil, err
	}
	var rows []A3Row
	for i, w := range r.spec.Workloads {
		base, withPf, best := g[i][0], g[i][1], g[i][2]
		s := withPf.Counters
		row := A3Row{Workload: w, BaseIPC: base.IPC, PfIPC: withPf.IPC, BestPfIPC: best.IPC}
		if issued := s.Get(stats.PortPrefetches); issued > 0 {
			row.Accuracy = stats.SafeRatio(float64(s.Get(stats.PortUsefulPrefetches)), float64(issued))
		}
		rows = append(rows, row)
		t.AddRow(w, stats.Cell(row.BaseIPC), stats.Cell(row.PfIPC), stats.Cell(row.BestPfIPC),
			stats.Percent(row.Accuracy))
	}
	return rows, t, nil
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

// A4Row is the disambiguation comparison for one workload.
type A4Row struct {
	Workload        string
	Conservative    float64 // IPC with R10000-style conservative disambiguation
	Speculative     float64 // IPC with memory-dependence speculation
	ViolationsPerKI float64
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
func A4MemSpeculation(r *Runner) ([]A4Row, *stats.Table, error) {
	t := stats.NewTable("A4: conservative vs speculative memory disambiguation (single port)",
		"workload", "conservative", "speculative", "speedup", "violations/kI")
	g, err := r.runPlan(a4Plan(r.spec))
	if err != nil {
		return nil, nil, err
	}
	var rows []A4Row
	for i, w := range r.spec.Workloads {
		cons, sp := g[i][0], g[i][1]
		row := A4Row{
			Workload:        w,
			Conservative:    cons.IPC,
			Speculative:     sp.IPC,
			ViolationsPerKI: stats.SafeRatio(1000*float64(sp.Counters.Get(stats.LSQViolations)), float64(sp.Instructions)),
		}
		rows = append(rows, row)
		t.AddRow(w, stats.Cell(row.Conservative), stats.Cell(row.Speculative),
			stats.Cell(stats.SafeRatio(row.Speculative, row.Conservative)), stats.Cell(row.ViolationsPerKI))
	}
	return rows, t, nil
}

// A5Row compares write policies for one workload.
type A5Row struct {
	Workload    string
	WBPlain     float64 // write-back, no combining (the baseline policy)
	WTPlain     float64 // write-through, no combining
	WTCombining float64 // write-through with the combining buffer
	WTDRAMPerKI float64 // DRAM accesses per 1000 instructions, WT plain
	WBDRAMPerKI float64
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
func A5WritePolicy(r *Runner) ([]A5Row, *stats.Table, error) {
	t := stats.NewTable("A5: write-back vs write-through/no-allocate (single port)",
		"workload", "write-back", "write-through", "WT+combining", "WB dram/kI", "WT dram/kI")
	g, err := r.runPlan(a5Plan(r.spec))
	if err != nil {
		return nil, nil, err
	}
	var rows []A5Row
	for i, w := range r.spec.Workloads {
		wb, plain, comb := g[i][0], g[i][1], g[i][2]
		row := A5Row{
			Workload:    w,
			WBPlain:     wb.IPC,
			WTPlain:     plain.IPC,
			WTCombining: comb.IPC,
			WBDRAMPerKI: stats.SafeRatio(1000*float64(wb.Counters.Get(stats.DRAMAccesses)), float64(wb.Instructions)),
			WTDRAMPerKI: stats.SafeRatio(1000*float64(plain.Counters.Get(stats.DRAMAccesses)), float64(plain.Instructions)),
		}
		rows = append(rows, row)
		t.AddRow(w, stats.Cell(row.WBPlain), stats.Cell(row.WTPlain), stats.Cell(row.WTCombining),
			stats.Cell(row.WBDRAMPerKI), stats.Cell(row.WTDRAMPerKI))
	}
	return rows, t, nil
}

// A6Row is one multiprogramming level's result.
type A6Row struct {
	Processes  int
	SingleIPC  float64
	BestIPC    float64
	DualIPC    float64
	L1DMiss    float64 // single-port L1D miss rate
	DTLBMissKI float64 // single-port DTLB misses per 1000 instructions
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
// result, by a different mechanism.
func A6Multiprogramming(r *Runner) ([]A6Row, *stats.Table, error) {
	t := stats.NewTable("A6: multiprogramming level (compress, 5k-instruction quanta)",
		"processes", "single", "best-single", "dual", "L1D miss", "dtlb miss/kI")
	g, err := r.runPlan(a6Plan(r.spec))
	if err != nil {
		return nil, nil, err
	}
	var rows []A6Row
	for i, n := range a6Levels {
		single, best, dual := g[i][0], g[i][1], g[i][2]
		s := single.Counters
		row := A6Row{
			Processes:  n,
			SingleIPC:  single.IPC,
			BestIPC:    best.IPC,
			DualIPC:    dual.IPC,
			L1DMiss:    stats.SafeRatio(float64(s.Get(stats.L1DMisses)), float64(s.Get(stats.L1DMisses)+s.Get(stats.L1DHits))),
			DTLBMissKI: stats.SafeRatio(1000*float64(s.Get(stats.DTLBMisses)), float64(single.Instructions)),
		}
		rows = append(rows, row)
		t.AddRow(fmt.Sprint(n), stats.Cell(row.SingleIPC), stats.Cell(row.BestIPC),
			stats.Cell(row.DualIPC), stats.Percent(row.L1DMiss), stats.Cell(row.DTLBMissKI))
	}
	return rows, t, nil
}

// A7Row compares arbitration policies for one workload.
type A7Row struct {
	Workload    string
	LoadsFirst  float64
	StoresFirst float64
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
func A7ArbitrationPolicy(r *Runner) ([]A7Row, *stats.Table, error) {
	t := stats.NewTable("A7: port arbitration — loads-first vs stores-first (single port)",
		"workload", "loads-first", "stores-first", "ratio")
	g, err := r.runPlan(a7Plan(r.spec))
	if err != nil {
		return nil, nil, err
	}
	var rows []A7Row
	for i, w := range r.spec.Workloads {
		lf, s := g[i][0], g[i][1]
		row := A7Row{Workload: w, LoadsFirst: lf.IPC, StoresFirst: s.IPC}
		rows = append(rows, row)
		t.AddRow(w, stats.Cell(row.LoadsFirst), stats.Cell(row.StoresFirst),
			stats.Cell(stats.SafeRatio(row.StoresFirst, row.LoadsFirst)))
	}
	return rows, t, nil
}

// T4Row is the per-cycle grant distribution of one machine on one workload.
type T4Row struct {
	Machine  string
	Workload string
	// Frac[k] is the fraction of cycles with exactly k port grants.
	Frac []float64
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
func T4GrantDistribution(r *Runner) ([]T4Row, *stats.Table, error) {
	t := stats.NewTable("T4: per-cycle port-grant distribution",
		"machine", "workload", "0 grants", "1 grant", "2 grants")
	p := t4Plan(r.spec)
	res, err := r.runPlan(p)
	if err != nil {
		return nil, nil, err
	}
	var rows []T4Row
	for j, m := range p.machines {
		maxG := m.Ports.Count
		for i, w := range r.spec.Workloads {
			s := res[i][j].Counters
			cycles := float64(s.Get(stats.PortCycles))
			row := T4Row{Machine: m.Name, Workload: w}
			rowCells := []string{m.Name, w}
			for g := 0; g <= 2; g++ {
				frac := 0.0
				if g <= maxG {
					frac = stats.SafeRatio(float64(s.Get(stats.GrantBucket(g))), cycles)
				}
				row.Frac = append(row.Frac, frac)
				if g <= maxG {
					rowCells = append(rowCells, stats.Percent(frac))
				} else {
					rowCells = append(rowCells, "-")
				}
			}
			rows = append(rows, row)
			t.AddRow(rowCells...)
		}
	}
	return rows, t, nil
}

// A8Row compares idealised vs wrong-path-polluting fetch for one workload.
type A8Row struct {
	Workload      string
	IdealIPC      float64
	PollutedIPC   float64
	ExtraL1IPerKI float64 // additional L1I misses per 1000 instructions
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
func A8WrongPathFetch(r *Runner) ([]A8Row, *stats.Table, error) {
	t := stats.NewTable("A8: idealised vs wrong-path-polluting fetch (single port)",
		"workload", "idealised", "wrong-path", "ratio", "extra L1I miss/kI")
	g, err := r.runPlan(a8Plan(r.spec))
	if err != nil {
		return nil, nil, err
	}
	var rows []A8Row
	for i, w := range r.spec.Workloads {
		ideal, pol := g[i][0], g[i][1]
		row := A8Row{
			Workload:    w,
			IdealIPC:    ideal.IPC,
			PollutedIPC: pol.IPC,
			ExtraL1IPerKI: stats.SafeRatio(
				1000*(float64(pol.Counters.Get(stats.L1IMisses))-float64(ideal.Counters.Get(stats.L1IMisses))),
				float64(pol.Instructions)),
		}
		rows = append(rows, row)
		t.AddRow(w, stats.Cell(row.IdealIPC), stats.Cell(row.PollutedIPC),
			stats.Cell(stats.SafeRatio(row.PollutedIPC, row.IdealIPC)), stats.Cell(row.ExtraL1IPerKI))
	}
	return rows, t, nil
}
