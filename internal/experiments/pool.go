package experiments

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"portsim/internal/cpu"
)

// cell is one schedulable simulation of an experiment's plan. Cells must
// be independent and deterministic — the pool runs them in any order and
// merges results by submission index.
type cell func() (*cpu.Result, error)

// runCellContained executes one cell with a panic backstop. The runner's
// own simulation path (runStream) already contains panics with full cell
// context; this catches panics in the cell closures themselves — the last
// line of defence keeping a worker goroutine's panic from killing the whole
// process.
func runCellContained(c cell) (res *cpu.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = &CellError{
				Bundle: Bundle{Version: BundleVersion},
				Stack:  string(debug.Stack()),
				Err:    fmt.Errorf("%w: %v", ErrCellPanic, p),
			}
		}
	}()
	return c()
}

// runAll executes cells on a bounded worker pool of r.Parallel() goroutines
// and returns the results in submission order, so every consumer — table
// rows, geomeans, ratio columns — sees exactly the sequence a serial run
// would have produced. Every cell runs to completion even when others fail:
// one poisoned cell must not abandon the rest of a long campaign, and the
// memo cache makes a retried duplicate cheap anyway. Cell failures are
// aggregated (in submission order) into the returned error; the partial
// results are returned alongside so callers that can render a healthy
// subset may do so.
func (r *Runner) runAll(cells []cell) ([]*cpu.Result, error) {
	n := len(cells)
	results := make([]*cpu.Result, n)
	cellErrs := make([]error, n)
	workers := r.parallel
	if workers > n {
		workers = n
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				res, err := runCellContained(cells[i])
				if err != nil {
					cellErrs[i] = err
					continue
				}
				results[i] = res
				r.noteProgress()
			}
		}()
	}
	wg.Wait()
	var errs []error
	for _, err := range cellErrs {
		if err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return results, errors.Join(errs...)
	}
	return results, nil
}
