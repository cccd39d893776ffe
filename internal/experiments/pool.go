package experiments

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// runCellContained runs cell i with a panic backstop. The runner's own
// simulation path (runStream) already contains panics with full cell
// context; this catches panics in run itself — the last line of defence
// keeping a worker goroutine's panic from killing the whole process.
func runCellContained(run func(cell int) error, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &CellError{
				Bundle: Bundle{Version: BundleVersion},
				Stack:  string(debug.Stack()),
				Err:    fmt.Errorf("%w: %v", ErrCellPanic, p),
			}
		}
	}()
	return run(i)
}

// runAll runs cells 0 to n-1, each by one call of run, on a bounded worker
// pool of r.Parallel() goroutines. Cells are data to run: the caller keeps
// each cell's request and result in slices indexed by cell, so every
// consumer — table rows, geomeans, ratio columns — reads exactly what a
// serial run would have produced, and the pool allocates nothing per cell.
// Every cell runs to completion even when others fail: one poisoned cell
// must not abandon the rest of a long campaign, and the memo cache makes a
// retried duplicate cheap anyway. Cell failures are aggregated, in cell
// order, into the returned error.
func (r *Runner) runAll(n int, run func(cell int) error) error {
	cellErrs := make([]error, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range min(r.parallel, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if cellErrs[i] = runCellContained(run, i); cellErrs[i] == nil {
					r.noteProgress()
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(cellErrs...)
}
