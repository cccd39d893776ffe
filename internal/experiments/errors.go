package experiments

import (
	"errors"
	"fmt"
	"strings"

	"portsim/internal/diag"
)

// ErrCellPanic marks a CellError produced by containing a panic (as opposed
// to a simulation returning an ordinary error such as a watchdog stall).
var ErrCellPanic = errors.New("experiments: cell panicked")

// CellError is the structured failure of one experiment cell: everything
// needed to understand and reproduce it without re-running the whole suite.
// The runner converts both contained panics and simulation errors (deadline,
// watchdog stall) into CellErrors, so a failed campaign reports which
// (machine, workload) cell died, with what configuration, and what the
// pipeline was doing at the time.
type CellError struct {
	// Bundle describes the failed cell: its machine as simulated (fault
	// knobs included, serialisable with Machine.ToJSON), its stream, seed
	// and budget, and the stream fault that poisoned it, if any. Encoded,
	// it is the cell's repro bundle.
	Bundle
	// Stack is the contained panic's stack trace, empty for ordinary
	// simulation errors.
	Stack string
	// Events is the flight recorder's tail (oldest first), empty when no
	// recorder was armed or the cell failed before its first pipeline
	// event (a stream fault fires when fetch's read-ahead pulls).
	Events []diag.Event
	// Err is the underlying failure; it wraps ErrCellPanic for contained
	// panics and cpu.ErrStall / cpu.ErrDeadline for aborted simulations.
	Err error
}

// Error returns the one-line headline; Detail carries the forensics.
func (e *CellError) Error() string {
	name := e.Machine.Name
	if name == "" {
		name = "(unknown machine)"
	}
	w := e.Workload
	if w == "" {
		w = "(unknown workload)"
	}
	return fmt.Sprintf("cell %s on %s (seed %d, %d insts): %v", w, name, e.Seed, e.Insts, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is / errors.As.
func (e *CellError) Unwrap() error { return e.Err }

// Detail renders the full forensic report: headline, machine configuration
// JSON, the contained stack (if any), and the flight-recorder tail.
func (e *CellError) Detail() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CELL ERROR: %s\n", e.Error())
	if cfg, err := e.Machine.ToJSON(); err == nil {
		fmt.Fprintf(&b, "machine configuration:\n%s\n", cfg)
	} else {
		fmt.Fprintf(&b, "machine configuration unavailable: %v\n", err)
	}
	if e.Stack != "" {
		fmt.Fprintf(&b, "panic stack:\n%s\n", strings.TrimRight(e.Stack, "\n"))
	}
	b.WriteString(diag.FormatEvents(e.Events))
	return b.String()
}

// CellErrors walks an error tree (including errors.Join aggregates) and
// returns every CellError in it, in traversal order. Duplicate pointers —
// the same memoised cell failure surfacing through several experiments —
// appear once.
func CellErrors(err error) []*CellError {
	var (
		out  []*CellError
		seen = map[*CellError]bool{}
		walk func(error)
	)
	walk = func(err error) {
		if err == nil {
			return
		}
		if ce, ok := err.(*CellError); ok {
			if !seen[ce] {
				seen[ce] = true
				out = append(out, ce)
			}
			walk(ce.Err)
			return
		}
		switch x := err.(type) {
		case interface{ Unwrap() error }:
			walk(x.Unwrap())
		case interface{ Unwrap() []error }:
			for _, sub := range x.Unwrap() {
				walk(sub)
			}
		}
	}
	walk(err)
	return out
}
