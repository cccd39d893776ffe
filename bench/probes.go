package main

import (
	"fmt"
	"os"
	"time"

	"portsim/internal/bpred"
	"portsim/internal/cellstore"
	"portsim/internal/config"
	"portsim/internal/cpu"
	"portsim/internal/isa"
	"portsim/internal/mem"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// probeRepeats is how many times the millisecond-scale construction probes
// run; they report the median.
const probeRepeats = 9

// dataAccessGap is the simulated-cycle spacing of the data-access probe:
// longer than a DRAM miss, so every access finds a free MSHR and the probe
// times the hierarchy's lookup path rather than its refusals.
const dataAccessGap = 64

// probeLayers times each layer's hot call in isolation over the workload's
// own traces, n instructions each (the workload's per-simulation length),
// and fills the trace, workload, cpu, mem and bpred probe metrics. A
// campaign's traces also include the A6 sweep's extra compress processes.
func (e *env) probeLayers(m map[string]float64, n uint64, campaign bool) error {
	probesID := e.rec.newID()
	start := time.Now()
	defer func() { e.rec.add(probesID, 0, "probes", "bench", start, time.Now()) }()
	timed := func(name, cat string, fn func() error) (time.Duration, error) {
		t := time.Now()
		err := fn()
		end := time.Now()
		e.rec.add(0, probesID, name, cat, t, end)
		return end.Sub(t), err
	}
	length := int(n) + cpu.StreamChunk
	inWorkload := map[string]bool{}
	for _, p := range e.profiles {
		inWorkload[p] = true
	}

	// trace.Materialize of every trace; only the workload's own count.
	var materialize time.Duration
	build := func(prof workload.Profile, seed int64, counted bool) (*trace.Arena, error) {
		var a *trace.Arena
		d, err := timed("materialize "+prof.Name, "trace", func() error {
			gen, err := workload.New(prof, seed)
			if err != nil {
				return err
			}
			a = trace.Materialize(gen, length)
			return nil
		})
		if counted {
			materialize += d
		}
		return a, err
	}
	arenas := map[string]*trace.Arena{}
	for _, name := range workload.Names() {
		prof, _ := workload.ByName(name)
		a, err := build(prof, e.seed, inWorkload[name] || campaign && name == "compress")
		if err != nil {
			return err
		}
		arenas[name] = a
	}
	compress, _ := workload.ByName("compress")
	procs := []*trace.Cursor{arenas["compress"].NewCursor()}
	for i := 1; i < a6Processes; i++ {
		a, err := build(compress, e.seed+int64(i)*workload.SeedStride, campaign)
		if err != nil {
			return err
		}
		procs = append(procs, a.NewCursor())
	}
	m["trace.materialize_s"] = materialize.Seconds()

	// Replay and generation, batch by batch, as the core's fetch pulls them.
	var buf [cpu.StreamChunk]isa.Inst
	drain := func(next func([]isa.Inst) int, limit int) int {
		got := 0
		for got < limit {
			k := next(buf[:min(len(buf), limit-got)])
			if k == 0 {
				break
			}
			got += k
		}
		return got
	}
	var replayed, generated int
	d, _ := timed("replay", "trace", func() error {
		for _, p := range e.profiles {
			replayed += drain(arenas[p].NewCursor().NextBatch, length)
		}
		return nil
	})
	m["trace.replay_ns_per_inst"] = safeDiv(float64(d.Nanoseconds()), float64(replayed))
	var genTime time.Duration
	for _, p := range e.profiles {
		prof, _ := workload.ByName(p)
		gen, err := workload.New(prof, e.seed)
		if err != nil {
			return err
		}
		d, _ := timed("generate "+p, "workload", func() error {
			generated += drain(gen.NextBatch, int(n))
			return nil
		})
		genTime += d
	}
	m["workload.gen_ns_per_inst"] = safeDiv(float64(genTime.Nanoseconds()), float64(generated))
	mp, err := workload.NewMultiprogramReplay(procs, a6Quantum, e.seed)
	if err != nil {
		return err
	}
	var interleaved int
	d, _ = timed("multiprogram replay", "workload", func() error {
		interleaved = drain(mp.NextBatch, int(n))
		return nil
	})
	m["workload.multiprogram_ns_per_inst"] = safeDiv(float64(d.Nanoseconds()), float64(interleaved))

	// The core: a best-single run per profile over an arena cursor, and the
	// construction and pooled-reset costs a campaign pays per cell.
	best := config.BestSingle()
	for _, p := range workload.Names() {
		c, err := cpu.New(&best, arenas[p].NewCursor())
		if err != nil {
			return err
		}
		d, err := timed("run "+p+"@"+best.Name, "cpu", func() error {
			_, err := c.Run(cpu.Options{MaxInstructions: n, DeadlineCycles: cpu.DeadlineFor(n), StallCycles: cpu.DefaultStallCycles})
			return err
		})
		if err != nil {
			return fmt.Errorf("cpu probe %s: %w", p, err)
		}
		m["cpu.run_ns_per_inst."+p] = float64(d.Nanoseconds()) / float64(n)
	}
	base := config.Baseline()
	first := arenas[e.profiles[0]]
	var news, resets []float64
	var core *cpu.Core
	for range probeRepeats {
		d, err := timed("cpu.New", "cpu", func() error {
			var err error
			core, err = cpu.New(&base, first.NewCursor())
			return err
		})
		if err != nil {
			return err
		}
		news = append(news, d.Seconds()*1e3)
		d, err = timed("Core.Reset", "cpu", func() error { return core.Reset(first.NewCursor()) })
		if err != nil {
			return err
		}
		resets = append(resets, d.Seconds()*1e3)
	}
	m["cpu.new_ms"] = summarize(news).Median
	m["cpu.reset_ms"] = summarize(resets).Median

	// The memory hierarchy over the traces' data addresses, and the
	// predictors over their control instructions in fetch-width groups.
	sys, err := mem.NewSystem(&base)
	if err != nil {
		return err
	}
	var addrs []uint64
	var writes []bool
	var ops []bpred.Op
	var in isa.Inst
	for _, p := range e.profiles {
		a := arenas[p]
		meta := a.Meta()
		for i := 0; i < int(n); i++ {
			switch {
			case meta[i]&trace.MetaMem != 0:
				a.Inst(i, &in)
				addrs = append(addrs, in.Addr)
				writes = append(writes, in.Class == isa.Store)
			case meta[i]&trace.MetaCtrl != 0:
				ops = append(ops, bpred.Op{PC: a.PCs()[i], Target: a.Targets()[i],
					Class: isa.Class(a.Classes()[i]), Taken: meta[i]&trace.MetaTaken != 0})
			}
		}
	}
	d, _ = timed("System.DataAccess", "mem", func() error {
		now := uint64(0)
		for i, addr := range addrs {
			sys.DataAccess(now, addr, writes[i])
			now += dataAccessGap
		}
		return nil
	})
	m["mem.data_access_ns"] = safeDiv(float64(d.Nanoseconds()), float64(len(addrs)))
	unit, err := bpred.New(base.Pred)
	if err != nil {
		return err
	}
	d, _ = timed("Unit.PredictGroup", "bpred", func() error {
		for i := 0; i < len(ops); {
			i += unit.PredictGroup(ops[i:min(i+base.Core.FetchWidth, len(ops))])
		}
		return nil
	})
	m["bpred.predict_ns_per_op"] = safeDiv(float64(d.Nanoseconds()), float64(len(ops)))
	return nil
}

// probeStore re-times Put and Get of the workload's own store entries
// against a second store beside it.
func (e *env) probeStore(m map[string]float64, dir string) error {
	st, err := cellstore.Open(dir, cellstore.Options{})
	if err != nil {
		return err
	}
	var entries []*cellstore.Entry
	if _, err := st.Scan(func(en *cellstore.Entry) error {
		entries = append(entries, en)
		return nil
	}); err != nil {
		return err
	}
	probeDir := dir + "-probe"
	defer os.RemoveAll(probeDir)
	probe, err := cellstore.Open(probeDir, cellstore.Options{})
	if err != nil {
		return err
	}
	var puts, gets []float64
	for _, en := range entries {
		t := time.Now()
		if err := probe.Put(en); err != nil {
			return err
		}
		puts = append(puts, time.Since(t).Seconds()*1e3)
	}
	for _, en := range entries {
		t := time.Now()
		got, err := probe.Get(en.Key)
		if err != nil {
			return err
		}
		if got == nil {
			return fmt.Errorf("store probe: entry %s missing after Put", en.Key.ID())
		}
		gets = append(gets, time.Since(t).Seconds()*1e3)
	}
	m["cellstore.put_ms_p50"] = percentile(puts, 50)
	m["cellstore.put_ms_p95"] = percentile(puts, 95)
	m["cellstore.get_ms_p50"] = percentile(gets, 50)
	m["cellstore.get_ms_p95"] = percentile(gets, 95)
	return nil
}
