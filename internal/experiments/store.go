package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"portsim/internal/cellstore"
	"portsim/internal/cpu"
	"portsim/internal/cpustack"
	"portsim/internal/jsonwire"
	"portsim/internal/stats"
)

// This file is the experiments side of the durable cell store: the runner
// owns the lookup order (in-process memo → store → simulate → Put) and the
// encoding between simulator types and the store's opaque payloads. The
// store itself (internal/cellstore) never sees a cpu.Result or CellError —
// portlint's layerimports roster forbids it from importing the model
// packages — so everything crossing the boundary is serialised here.

// A stored result is one JSON object, the persisted form of a cpu.Result:
// its eight counts and its IPC under the names in resultFields, its
// counters as parallel name and value arrays in creation order, and, when
// the cell was simulated with cycle accounting armed, its CPI stack as an
// object of the nonzero buckets keyed by bucket name. Rebuilding a
// stats.Set by Add-ing in creation order reproduces the original set
// exactly — table rendering walks Names(), so restored cells render
// byte-identically to simulated ones — and the IPC round-trips exactly,
// as JSON carries the shortest decimal that parses back to its bits.
// encodeResult and decodeResult write and read the object by hand, byte
// for byte as json.Marshal writes and value for value as json.Unmarshal
// reads the storedResult struct the codec's tests keep as their reference.

// resultFields are a stored result's field names, in the order written.
var resultFields = []string{"cycles", "instructions", "user_insts", "kernel_insts", "loads", "stores",
	"branches", "mispredicts", "ipc", "counter_names", "counter_values", "cpi_stack"}

// bucketsByName are the CPI-stack buckets in the order of their names,
// the order json.Marshal writes a map's keys in.
var bucketsByName = func() []cpustack.Bucket {
	bs := make([]cpustack.Bucket, cpustack.NumBuckets)
	for i := range bs {
		bs[i] = cpustack.Bucket(i)
	}
	slices.SortFunc(bs, func(a, b cpustack.Bucket) int { return strings.Compare(a.String(), b.String()) })
	return bs
}()

// resultSize is the most a stored result's fixed fields take: 149 bytes
// of names and punctuation, 20 digits for each of the eight counts and 24
// for the IPC.
const resultSize = 333

// encodeResult serialises a result into the store's opaque payload, in
// one buffer sized for it up front.
func encodeResult(res *cpu.Result) (json.RawMessage, error) {
	set, st := res.Counters, res.CPIStack
	size := resultSize
	if set != nil {
		for i := range set.Len() {
			name, _ := set.At(i)
			size += len(name) + 24 // quotes, commas and the value's digits
		}
	}
	if st != nil {
		size += int(cpustack.NumBuckets) * 48 // a name of at most 18 bytes, punctuation and digits
	}
	dst := make([]byte, 0, size)
	dst = strconv.AppendUint(append(dst, `{"cycles":`...), res.Cycles, 10)
	dst = strconv.AppendUint(append(dst, `,"instructions":`...), res.Instructions, 10)
	dst = strconv.AppendUint(append(dst, `,"user_insts":`...), res.UserInsts, 10)
	dst = strconv.AppendUint(append(dst, `,"kernel_insts":`...), res.KernelInsts, 10)
	dst = strconv.AppendUint(append(dst, `,"loads":`...), res.Loads, 10)
	dst = strconv.AppendUint(append(dst, `,"stores":`...), res.Stores, 10)
	dst = strconv.AppendUint(append(dst, `,"branches":`...), res.Branches, 10)
	dst = strconv.AppendUint(append(dst, `,"mispredicts":`...), res.Mispredicts, 10)
	dst, err := jsonwire.AppendFloat(append(dst, `,"ipc":`...), res.IPC)
	if err != nil {
		return nil, err
	}
	switch {
	case set == nil:
		dst = append(dst, `,"counter_names":null,"counter_values":null`...)
	case set.Len() == 0 && set.Names() == nil:
		// A zero Set's names are a nil slice, which Marshal writes null.
		dst = append(dst, `,"counter_names":null,"counter_values":[]`...)
	default:
		dst = append(dst, `,"counter_names":[`...)
		for i := range set.Len() {
			name, _ := set.At(i)
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonwire.AppendString(dst, name)
		}
		dst = append(dst, `],"counter_values":[`...)
		for i := range set.Len() {
			_, v := set.At(i)
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	// The stack is a map of its nonzero buckets; omitempty leaves out an
	// empty one.
	if st != nil && *st != (cpustack.Snapshot{}) {
		sep := `,"cpi_stack":{`
		for _, b := range bucketsByName {
			if v := st.Buckets[b]; v > 0 {
				dst = jsonwire.AppendString(append(dst, sep...), b.String())
				dst = strconv.AppendUint(append(dst, ':'), v, 10)
				sep = ","
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// decodeResult rebuilds a cpu.Result from a stored payload, read in one
// pass into one cpu.NewResult, the allocation a simulated result takes.
// Counter names of the stats vocabulary decode into the vocabulary's own
// strings, so a restored result shares its counter names as a simulated
// one does, and a stored CPI stack decodes straight into its snapshot,
// each bucket name resolved through the bucket table.
func decodeResult(raw json.RawMessage) (*cpu.Result, error) {
	res := cpu.NewResult()
	// The names and values wait here until their count is known; a
	// result of vocabulary names fits without allocating.
	var nameBuf [stats.MaxVocabulary]string
	var valueBuf [stats.MaxVocabulary]uint64
	names, values := nameBuf[:0], valueBuf[:0]
	var stackErr error
	r := jsonwire.NewReader(raw)
	if r.Object() {
		for name, ok := r.Member(resultFields); ok; name, ok = r.Member(resultFields) {
			switch name {
			case "cycles":
				r.Uint(&res.Cycles)
			case "instructions":
				r.Uint(&res.Instructions)
			case "user_insts":
				r.Uint(&res.UserInsts)
			case "kernel_insts":
				r.Uint(&res.KernelInsts)
			case "loads":
				r.Uint(&res.Loads)
			case "stores":
				r.Uint(&res.Stores)
			case "branches":
				r.Uint(&res.Branches)
			case "mispredicts":
				r.Uint(&res.Mispredicts)
			case "ipc":
				r.Float(&res.IPC)
			case "counter_names":
				names = names[:0]
				if r.Array() {
					for r.Elem() {
						names = append(names, counterName(&r))
					}
				}
			case "counter_values":
				values = values[:0]
				if r.Array() {
					for r.Elem() {
						var v uint64
						r.Uint(&v)
						values = append(values, v)
					}
				}
			case "cpi_stack":
				if r.Null() {
					res.CPIStack = nil
					continue
				}
				if res.CPIStack == nil {
					res.CPIStack = new(cpustack.Snapshot)
				}
				if err := readStack(&r, res.CPIStack); stackErr == nil {
					stackErr = err
				}
			default:
				r.Skip()
			}
		}
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("experiments: stored result not parseable: %w", err)
	}
	if len(names) != len(values) {
		return nil, fmt.Errorf("experiments: stored result has %d counter names but %d values",
			len(names), len(values))
	}
	if stackErr != nil {
		return nil, fmt.Errorf("experiments: stored result: %w", stackErr)
	}
	for i, name := range names {
		res.Counters.Add(name, values[i]) //portlint:ignore counterhygiene restoring the simulator's own recorded names verbatim
	}
	return res, nil
}

// counterName reads a stored counter name: a name of the stats vocabulary
// as the vocabulary's own string, any other name as read.
func counterName(r *jsonwire.Reader) string {
	text, ok := r.Text()
	if !ok {
		return ""
	}
	if name, ok := stats.VocabularyName(text); ok {
		return name
	}
	return string(text)
}

// readStack reads a stored CPI stack, the bucket name → cycles object
// that Snapshot.Map writes, into snap, as json.Unmarshal reads it into a
// map that cpustack.FromMap then converts. An unknown bucket name is the
// error FromMap gives it, returned once the object is read.
func readStack(r *jsonwire.Reader, snap *cpustack.Snapshot) error {
	if !r.Object() {
		return nil
	}
	var err error
	for name, ok := r.Key(); ok; name, ok = r.Key() {
		var v uint64
		r.Uint(&v)
		if bucket, known := cpustack.BucketByName(string(name)); known {
			snap.Buckets[bucket] = v
		} else if err == nil {
			err = fmt.Errorf("cpustack: unknown bucket %q", name)
		}
	}
	return err
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
