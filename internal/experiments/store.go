package experiments

import (
	"encoding/json"
	"errors"
	"fmt"

	"portsim/internal/cellstore"
	"portsim/internal/cpu"
	"portsim/internal/cpustack"
	"portsim/internal/stats"
)

// This file is the experiments side of the durable cell store: the runner
// owns the lookup order (in-process memo → store → simulate → Put) and the
// encoding between simulator types and the store's opaque payloads. The
// store itself (internal/cellstore) never sees a cpu.Result or CellError —
// portlint's layerimports roster forbids it from importing the model
// packages — so everything crossing the boundary is serialised here.

// storedResult is the persisted form of a cpu.Result. Counters are encoded
// as parallel name/value slices in creation order, because rebuilding a
// stats.Set by Add-ing in that order reproduces the original set exactly —
// table rendering walks Names(), so restored cells render byte-identically
// to simulated ones.
type storedResult struct {
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	UserInsts    uint64 `json:"user_insts"`
	KernelInsts  uint64 `json:"kernel_insts"`
	Loads        uint64 `json:"loads"`
	Stores       uint64 `json:"stores"`
	Branches     uint64 `json:"branches"`
	Mispredicts  uint64 `json:"mispredicts"`
	// IPC roundtrips exactly: encoding/json renders float64 with the
	// shortest representation that parses back to the same bits.
	IPC           float64  `json:"ipc"`
	CounterNames  []string `json:"counter_names"`
	CounterValues []uint64 `json:"counter_values"`
	// CPIStack is the cycle-accounting breakdown keyed by bucket name,
	// present only when the cell was simulated with accounting armed.
	CPIStack map[string]uint64 `json:"cpi_stack,omitempty"`
}

// encodeResult serialises a result into the store's opaque payload.
func encodeResult(res *cpu.Result) (json.RawMessage, error) {
	sr := storedResult{
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		UserInsts:    res.UserInsts,
		KernelInsts:  res.KernelInsts,
		Loads:        res.Loads,
		Stores:       res.Stores,
		Branches:     res.Branches,
		Mispredicts:  res.Mispredicts,
		IPC:          res.IPC,
		CPIStack:     res.CPIStack.Map(),
	}
	if res.Counters != nil {
		sr.CounterNames = res.Counters.Names()
		sr.CounterValues = make([]uint64, len(sr.CounterNames))
		for i, name := range sr.CounterNames {
			sr.CounterValues[i] = res.Counters.Get(name) //portlint:ignore counterhygiene name ranges over Counters.Names()
		}
	}
	return json.Marshal(&sr)
}

// decodeResult rebuilds a cpu.Result from a stored payload.
func decodeResult(raw json.RawMessage) (*cpu.Result, error) {
	var sr storedResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, fmt.Errorf("experiments: stored result not parseable: %w", err)
	}
	if len(sr.CounterNames) != len(sr.CounterValues) {
		return nil, fmt.Errorf("experiments: stored result has %d counter names but %d values",
			len(sr.CounterNames), len(sr.CounterValues))
	}
	res := &cpu.Result{
		Cycles:       sr.Cycles,
		Instructions: sr.Instructions,
		UserInsts:    sr.UserInsts,
		KernelInsts:  sr.KernelInsts,
		Loads:        sr.Loads,
		Stores:       sr.Stores,
		Branches:     sr.Branches,
		Mispredicts:  sr.Mispredicts,
		IPC:          sr.IPC,
		Counters:     stats.NewSetSize(len(sr.CounterNames)),
	}
	for i, name := range sr.CounterNames {
		res.Counters.Add(name, sr.CounterValues[i]) //portlint:ignore counterhygiene restoring the simulator's own recorded names verbatim
	}
	stack, err := cpustack.FromMap(sr.CPIStack)
	if err != nil {
		return nil, fmt.Errorf("experiments: stored result: %w", err)
	}
	res.CPIStack = stack
	return res, nil
}

// restoredError is the underlying error of a CellError rebuilt from the
// store. It preserves the original message verbatim and, via Is, keeps
// errors.Is(err, ErrCellPanic) true for failures born from contained
// panics — callers triage restored failures exactly like fresh ones.
type restoredError struct {
	msg      string
	panicked bool
}

func (e *restoredError) Error() string { return e.msg }

// Is reports ErrCellPanic identity for restored panic failures.
func (e *restoredError) Is(target error) bool {
	return e.panicked && target == ErrCellPanic
}

// runDurable is the store layer between the memo and the simulator: consult
// the store, restore on a hit, otherwise simulate and persist the outcome.
// It runs only in the memo owner's fill path, so the store sees each
// distinct cell once per campaign regardless of parallelism.
func (r *Runner) runDurable(c *cellReq) (*cpu.Result, error) {
	st := r.spec.Store
	if st != nil {
		if entry, _ := st.Get(c.key); entry != nil {
			res, err, decErr := r.restoreEntry(entry, c)
			if decErr == nil {
				// Store hits never reach runStream's observer; report here.
				r.emitCell(c, CellEvent{StoreHit: true, Result: res, Err: err})
				return res, err
			}
			// The envelope verified but the experiments-layer payload did
			// not decode (e.g. written by an incompatible build). Quarantine
			// it and fall through to a fresh simulation.
			st.Quarantine(c.key, decErr)
		}
	}
	res, err := r.runStream(c, nil)
	if st != nil {
		r.putEntry(st, c, res, err)
	}
	return res, err
}

// restoreEntry rebuilds the cell outcome from a stored entry. The third
// return is non-nil when the payload is undecodable (the caller
// quarantines); otherwise exactly one of res/err is set.
func (r *Runner) restoreEntry(entry *cellstore.Entry, c *cellReq) (*cpu.Result, error, error) {
	if entry.Failure != nil {
		f := entry.Failure
		// Rebuild the CellError from the coordinates at hand. Wedge-mode
		// faults mutate the cell's private machine copy before simulating;
		// re-arm the knob so the restored failure reports the configuration
		// as simulated. The flight-recorder events are forensics of the
		// original run and are not persisted — the stack is.
		m := c.m
		if r.spec.Fault.applies(c.workload) && r.spec.Fault.Mode == FaultWedge {
			m.Ports.FaultStuckDrain = true
		}
		return nil, r.cellError(c, m, nil, f.Stack, &restoredError{msg: f.Message, panicked: f.Panicked}), nil
	}
	res, err := decodeResult(entry.Result)
	if err != nil {
		return nil, nil, err
	}
	return res, nil, nil
}

// putEntry persists one finished cell under its key, labelled with the
// names it ran under. Results always store; failures store only when they
// are deterministic cell failures (CellError) — anything else is a
// configuration error that costs nothing to rediscover. Put errors are
// advisory: the store quarantines, retries and degrades on its own, and a
// campaign never fails over durability.
func (r *Runner) putEntry(st *cellstore.Store, c *cellReq, res *cpu.Result, err error) {
	e := cellstore.Entry{Key: c.key, Machine: c.m.Name, Workload: c.workload}
	switch {
	case err == nil:
		raw, encErr := encodeResult(res)
		if encErr != nil {
			return
		}
		e.Result = raw
	default:
		var ce *CellError
		if !errors.As(err, &ce) {
			return
		}
		e.Failure = &cellstore.Failure{
			Message:  ce.Err.Error(),
			Panicked: errors.Is(ce.Err, ErrCellPanic),
			Stack:    ce.Stack,
		}
	}
	_ = st.Put(&e)
}
