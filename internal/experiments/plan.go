package experiments

import (
	"fmt"

	"portsim/internal/config"
	"portsim/internal/cpu"
	"portsim/internal/stats"
)

// plan is an experiment's grid of cells: every stream runs on every
// machine. Cells are submitted stream by stream, each across all machines,
// or machine by machine when byMachine is set. The order decides which
// submission of a shared cell simulates and which joins it through the
// memo, so each experiment keeps the order it has always submitted in.
type plan struct {
	streams   []planStream
	machines  []config.Machine
	byMachine bool
}

// cell returns the (stream, machine) indices of the plan's i-th cell in
// submission order.
func (p plan) cell(i int) (s, m int) {
	if p.byMachine {
		return i % len(p.streams), i / len(p.streams)
	}
	return i / len(p.machines), i % len(p.machines)
}

// each calls fn with the (stream, machine) indices of every cell, in
// submission order.
func (p plan) each(fn func(s, m int)) {
	for i := range len(p.streams) * len(p.machines) {
		fn(p.cell(i))
	}
}

// runPlan submits every cell of the plan through runAll and returns the
// results by [stream][machine]; a failed cell's slot stays nil. The plan's
// streams are hashed in place, unless they already are: a row's hashes
// cost a document appended on the stack and one string each. Its cells
// run as data: one cellReq per cell, filled in by the worker that runs
// it, and one result array behind the grid's rows.
func (r *Runner) runPlan(p plan) ([][]*cpu.Result, error) {
	ns, nm := len(p.streams), len(p.machines)
	for s := range p.streams {
		p.streams[s] = p.streams[s].hashed()
	}
	cells := make([]cellReq, ns*nm)
	results := make([]*cpu.Result, ns*nm)
	grid := make([][]*cpu.Result, ns)
	for s := range grid {
		grid[s] = results[s*nm : (s+1)*nm : (s+1)*nm]
	}
	err := r.runAll(len(cells), func(i int) (err error) {
		s, m := p.cell(i)
		c := &cells[i]
		c.m, c.planStream = p.machines[m], p.streams[s]
		grid[s][m], err = r.run(c)
		return err
	})
	return grid, err
}

// onWorkloads is the plan of the spec's workloads on the machines.
func onWorkloads(spec Spec, machines ...config.Machine) plan {
	streams := make([]planStream, len(spec.Workloads))
	for i, w := range spec.Workloads {
		streams[i] = named(w)
	}
	return plan{streams: streams, machines: machines}
}

// variants returns one baseline machine per value, named by the format
// applied to the value and changed by set.
func variants(values []int, format string, set func(*config.Machine, int)) []config.Machine {
	ms := make([]config.Machine, len(values))
	for i, v := range values {
		ms[i] = config.Baseline()
		ms[i].Name = fmt.Sprintf(format, v)
		set(&ms[i], v)
	}
	return ms
}

// headlineMachines are F6's three machines, which T4, F7 and A6 run too:
// the plain single port, the best single port and the dual port.
func headlineMachines() []config.Machine {
	return []config.Machine{config.Baseline(), config.BestSingle(), config.DualPort()}
}

// geoMeanIPC is the geometric-mean IPC of one machine's results over every
// stream of a plan.
func geoMeanIPC(grid [][]*cpu.Result, m int) float64 {
	ipcs := make([]float64, len(grid))
	for s, row := range grid {
		ipcs[s] = row[m].IPC
	}
	return stats.GeoMean(ipcs)
}

// Experiment is one table of the campaign.
type Experiment struct {
	// ID names the experiment: T1 to T4, F1 to F7, A1 to A8.
	ID string
	// plan is the experiment's grid for a spec.
	plan func(Spec) plan
	// Run renders the experiment's table on the runner.
	Run func(*Runner) (*stats.Table, error)
}

// PlannedCell is one cell an experiment submits, by the labels its
// CellEvent carries.
type PlannedCell struct{ Workload, Machine string }

// Cells returns the cells the experiment submits under spec, in submission
// order. One CellEvent fires for each, memo hits included.
func (e Experiment) Cells(spec Spec) []PlannedCell {
	p := e.plan(spec)
	var cells []PlannedCell
	p.each(func(s, m int) {
		cells = append(cells, PlannedCell{Workload: p.streams[s].workload, Machine: p.machines[m].Name})
	})
	return cells
}

// Suite returns every experiment in campaign order.
func Suite() []Experiment {
	return []Experiment{
		{"T1", func(Spec) plan { return plan{} }, func(*Runner) (*stats.Table, error) { return T1Baseline(), nil }},
		{"T2", t2Plan, tableOf(T2Characterisation)},
		{"F1", f1Plan, tableOf(F1PortCount)},
		{"F2", f2Plan, tableOf(F2BufferDepth)},
		{"F3", f3Plan, tableOf(F3PortWidth)},
		{"F4", f4Plan, tableOf(F4LineBuffers)},
		{"F5", f5Plan, tableOf(F5StoreCombining)},
		{"F6", f6Plan, tableOf(F6Headline)},
		{"T3", t3Plan, tableOf(T3PortUtilisation)},
		{"T4", t4Plan, tableOf(T4GrantDistribution)},
		{"F7", f7Plan, tableOf(F7KernelIntensity)},
		{"A1", a1Plan, tableOf(A1Ablation)},
		{"A2", a2Plan, tableOf(A2Banking)},
		{"A3", a3Plan, tableOf(A3Prefetch)},
		{"A4", a4Plan, tableOf(A4MemSpeculation)},
		{"A5", a5Plan, tableOf(A5WritePolicy)},
		{"A6", a6Plan, tableOf(A6Multiprogramming)},
		{"A7", a7Plan, tableOf(A7ArbitrationPolicy)},
		{"A8", a8Plan, tableOf(A8WrongPathFetch)},
	}
}

// tableOf adapts an experiment's function to Run. The function also
// returns the results its table derives from, by [stream][machine], or
// for F6 its rows.
func tableOf[R any](driver func(*Runner) (R, *stats.Table, error)) func(*Runner) (*stats.Table, error) {
	return func(r *Runner) (*stats.Table, error) {
		_, t, err := driver(r)
		return t, err
	}
}
