package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

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

// counterName is a stored counter name. A name of the stats vocabulary
// decodes into the vocabulary's own string, so a restored result shares
// its counter names as a simulated one does; any other name decodes
// verbatim.
type counterName string

func (n *counterName) UnmarshalJSON(b []byte) error {
	// No vocabulary name has a character that JSON escapes, so a match on
	// the raw bytes between the quotes is a match on the decoded string.
	if len(b) >= 2 && b[0] == '"' && b[len(b)-1] == '"' {
		if name, ok := stats.VocabularyName(b[1 : len(b)-1]); ok {
			*n = counterName(name)
			return nil
		}
	}
	return json.Unmarshal(b, (*string)(n))
}

// cpiStack is a stored CPI stack, the bucket name → cycles object that
// Snapshot.Map writes. It decodes straight into a snapshot: each name
// resolves through the bucket table on its raw bytes, so a restore builds
// no map and copies no name. An unknown name ends the decode into err,
// which decodeResult reports as it reports FromMap's.
type cpiStack struct {
	snap cpustack.Snapshot
	err  error
}

func (s *cpiStack) UnmarshalJSON(b []byte) error {
	// encoding/json hands over one well-formed value, so the object's
	// structure needs no checks beyond its first byte.
	if b[0] != '{' {
		return fmt.Errorf("experiments: cpi_stack is not an object: %.20s", b)
	}
	skip := func(b []byte) []byte { return bytes.TrimLeft(b, " \t\r\n,:") }
	for b = skip(b[1:]); b[0] != '}'; b = skip(b) {
		end := 1 // the name's closing quote
		for ; b[end] != '"'; end++ {
			if b[end] == '\\' {
				end++
			}
		}
		name := b[1:end]
		if bytes.IndexByte(name, '\\') >= 0 {
			// No bucket name has a character JSON escapes, but an escaped
			// spelling of one must still resolve.
			var unquoted string
			if err := json.Unmarshal(b[:end+1], &unquoted); err != nil {
				return err
			}
			name = []byte(unquoted)
		}
		bucket, ok := cpustack.BucketByName(string(name))
		if !ok {
			s.err = fmt.Errorf("cpustack: unknown bucket %q", name)
			return nil
		}
		b = skip(b[end+1:])
		n := bytes.IndexAny(b, " \t\r\n,}")
		v, err := strconv.ParseUint(string(b[:n]), 10, 64)
		if err != nil {
			return fmt.Errorf("experiments: cpi_stack %s cycles: %w", name, err)
		}
		s.snap.Buckets[bucket] = v
		b = b[n:]
	}
	return nil
}

// decodeResult rebuilds a cpu.Result from a stored payload.
func decodeResult(raw json.RawMessage) (*cpu.Result, error) {
	var sr struct {
		storedResult
		// CounterNames and CPIStack shadow the embedded fields of the
		// same JSON names, so the counter names decode through the
		// vocabulary and the stack through the bucket table.
		CounterNames []counterName `json:"counter_names"`
		CPIStack     *cpiStack     `json:"cpi_stack"`
	}
	// A result of vocabulary names has at most VocabularySize counters,
	// so the slices take every name and value without regrowing.
	n := stats.VocabularySize()
	sr.CounterNames, sr.CounterValues = make([]counterName, 0, n), make([]uint64, 0, n)
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
		res.Counters.Add(string(name), sr.CounterValues[i]) //portlint:ignore counterhygiene restoring the simulator's own recorded names verbatim
	}
	if st := sr.CPIStack; st != nil {
		if st.err != nil {
			return nil, fmt.Errorf("experiments: stored result: %w", st.err)
		}
		res.CPIStack = &st.snap
	}
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
		if entry, _ := st.GetID(c.key, c.keyID()); entry != nil {
			res, err, decErr := r.restoreEntry(entry, c)
			if decErr == nil {
				// Store hits never reach runStream's observer; report here.
				r.emitCell(c, CellEvent{StoreHit: true, Result: res, Err: err})
				return res, err
			}
			// The envelope verified but the experiments-layer payload did
			// not decode (e.g. written by an incompatible build). Quarantine
			// it and fall through to a fresh simulation.
			st.Quarantine(c.key, c.keyID(), decErr)
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
		// Rebuild the CellError from the coordinates at hand. An armed
		// fault mutates the cell's private machine copy before simulating;
		// re-arm it so the restored failure reports the configuration as
		// simulated. The flight-recorder events are forensics of the
		// original run and are not persisted — the stack is.
		m := c.m
		if r.spec.Fault.applies(c.workload) {
			r.spec.Fault.arm(&m)
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
	_ = st.PutID(&e, c.keyID())
}
