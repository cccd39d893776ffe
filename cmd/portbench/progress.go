package main

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"portsim/internal/telemetry"
)

// progressMode selects how -progress reports cell completions. The flag
// doubles as a boolean (-progress means rich) and accepts an explicit
// mode (-progress=plain for CI logs, -progress=false to silence).
type progressMode int

const (
	progressOff progressMode = iota
	progressRich
	progressPlain
)

func (m *progressMode) String() string {
	switch *m {
	case progressRich:
		return "rich"
	case progressPlain:
		return "plain"
	}
	return "false"
}

func (m *progressMode) Set(s string) error {
	switch strings.ToLower(s) {
	case "", "true", "rich":
		*m = progressRich
	case "plain":
		*m = progressPlain
	case "false", "off":
		*m = progressOff
	default:
		return fmt.Errorf("progress mode %q, want rich, plain or false", s)
	}
	return nil
}

// IsBoolFlag lets plain -progress (no value) select rich mode.
func (m *progressMode) IsBoolFlag() bool { return true }

// progressPrinter renders cell completions on w (stderr in production).
// Rich mode keeps one self-overwriting status line with throughput and an
// ETA; plain mode emits a newline-terminated line per cell so CI logs
// stay greppable. The printer is fed from the runner's cell observer, so
// it may be called from many worker goroutines at once.
type progressPrinter struct {
	mode    progressMode
	w       io.Writer
	planned int
	camp    *telemetry.Campaign

	// clock and start let tests drive the rate and ETA math with a fake
	// timeline; production uses time.Now.
	clock func() time.Time
	start time.Time

	mu      sync.Mutex
	last    time.Time
	lastLen int
}

// Rich-mode display guards. A rate needs measurable elapsed time or the
// division explodes into nonsense; an ETA needs a handful of actually
// simulated (non-memo) cells before the per-cell average means anything.
const (
	rateMinElapsed = time.Millisecond
	etaMinElapsed  = 100 * time.Millisecond
	etaMinBasis    = 3
)

func newProgressPrinter(mode progressMode, w io.Writer, planned int, camp *telemetry.Campaign) *progressPrinter {
	p := &progressPrinter{mode: mode, w: w, planned: planned, camp: camp, clock: time.Now}
	p.start = p.clock()
	return p
}

// cellDone reports one completed cell. Rich updates are throttled to ~10
// per second; the final cell always renders so the line ends accurate.
func (p *progressPrinter) cellDone(s telemetry.CellSample) {
	if p == nil || p.mode == progressOff {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	totals := p.camp.Totals()
	done := totals.Cells
	if p.mode == progressPlain {
		status := ""
		switch {
		case s.Failed:
			status = " FAILED"
		case s.MemoHit:
			status = " (memo)"
		case s.StoreHit:
			status = " (store)"
		}
		fmt.Fprintf(p.w, "portbench: cell %d/%d: %s @ %s%s\n",
			done, p.planned, s.Workload, s.Machine, status)
		return
	}
	now := p.clock()
	if done < p.planned && now.Sub(p.last) < 100*time.Millisecond {
		return
	}
	p.last = now
	p.render(totals)
}

// render draws the rich status line, padding over the previous one. The
// throughput and ETA figures are based only on cells that were actually
// simulated: memo hits complete in microseconds, and counting them as
// full-cost cells used to both deflate the Mcycles/s denominator's
// meaning and collapse the ETA toward zero whenever a campaign opened on
// a run of memo hits.
func (p *progressPrinter) render(totals telemetry.ManifestTotals) {
	done := totals.Cells
	elapsed := p.clock().Sub(p.start)
	line := fmt.Sprintf("portbench: %d/%d cells", done, p.planned)
	if elapsed >= rateMinElapsed {
		line += fmt.Sprintf(" | %.1f Mcycles/s", float64(totals.SimCycles)/elapsed.Seconds()/1e6)
	}
	// Store hits, like memo hits, finish in microseconds; the per-cell
	// average must be over cells that actually simulated or a resumed
	// campaign's opening run of restores collapses the ETA toward zero.
	simDone := done - totals.MemoHits - totals.StoreHits
	if simDone >= etaMinBasis && done < p.planned && elapsed >= etaMinElapsed {
		// Assume the remaining cells are all full-cost: a memo hit among
		// them only makes the estimate finish early, never blow through.
		perCell := elapsed.Seconds() / float64(simDone)
		eta := time.Duration(perCell * float64(p.planned-done) * float64(time.Second))
		line += fmt.Sprintf(" | ETA %s", eta.Round(time.Second))
	}
	pad := ""
	if n := p.lastLen - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	p.lastLen = len(line)
	fmt.Fprintf(p.w, "\r%s%s", line, pad)
}

// finish terminates the rich status line so later stderr output starts
// on a fresh line.
func (p *progressPrinter) finish() {
	if p == nil || p.mode != progressRich {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.render(p.camp.Totals())
	fmt.Fprintln(p.w)
}
