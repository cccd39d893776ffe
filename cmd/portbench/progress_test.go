package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"portsim/internal/telemetry"
)

// TestRichProgressRateBasis pins the rich-mode rate and ETA math to a fake
// clock. The regression it guards: memo-hit cells complete in microseconds,
// and the old estimate divided elapsed time by ALL completed cells, so a
// campaign that opened on a run of memo hits reported an ETA near zero and
// a meaningless throughput. The rate basis must be the non-memo cells only,
// the ETA must stay suppressed until that basis is stable, and a near-zero
// elapsed time must not produce a rate at all.
func TestRichProgressRateBasis(t *testing.T) {
	camp := telemetry.NewCampaign(10, false, nil)
	var buf bytes.Buffer
	p := newProgressPrinter(progressRich, &buf, 10, camp)
	cur := time.Unix(1000, 0)
	p.clock = func() time.Time { return cur }
	p.start = cur

	// Four memo hits land almost instantly. No simulated cell has
	// finished: no rate (elapsed is sub-millisecond) and no ETA (empty
	// basis) may appear.
	cur = cur.Add(500 * time.Microsecond)
	for i := 0; i < 4; i++ {
		camp.CellDone(telemetry.CellSample{Workload: "w", Machine: "m",
			ConfigJSON: []byte("{}"), MemoHit: true})
	}
	p.cellDone(telemetry.CellSample{MemoHit: true})
	got := buf.String()
	if !strings.Contains(got, "4/10 cells") {
		t.Fatalf("missing cell count: %q", got)
	}
	if strings.Contains(got, "Mcycles/s") {
		t.Errorf("rate rendered on near-zero elapsed: %q", got)
	}
	if strings.Contains(got, "ETA") {
		t.Errorf("ETA rendered with zero simulated cells as basis: %q", got)
	}

	// Three real cells at 300M cycles each, finishing six seconds in.
	// Rate: 900M cycles / 6s = 150 Mcycles/s. ETA: 6s/3 simulated cells
	// × 3 remaining = 6s. The memo-inclusive math this replaces would
	// have claimed 6s/7 × 3 ≈ 3s.
	cur = time.Unix(1006, 0)
	for i := 0; i < 3; i++ {
		camp.CellDone(telemetry.CellSample{Workload: "w", Machine: "m",
			ConfigJSON: []byte("{}"), Cycles: 300e6, Insts: 100e6,
			WallSeconds: 2, PortUtilization: -1, PortRejectRate: -1})
	}
	buf.Reset()
	p.cellDone(telemetry.CellSample{})
	got = buf.String()
	if !strings.Contains(got, "150.0 Mcycles/s") {
		t.Errorf("rate not based on simulated cycles over elapsed: %q", got)
	}
	if !strings.Contains(got, "ETA 6s") {
		t.Errorf("ETA not based on non-memo cells (want 6s, memo-diluted math gives ~3s): %q", got)
	}

	// Rich updates are throttled: a cell landing 10ms later must not
	// redraw.
	cur = cur.Add(10 * time.Millisecond)
	before := buf.Len()
	camp.CellDone(telemetry.CellSample{Workload: "w", Machine: "m",
		ConfigJSON: []byte("{}"), MemoHit: true})
	p.cellDone(telemetry.CellSample{MemoHit: true})
	if buf.Len() != before {
		t.Errorf("throttle ignored the fake clock: %q", buf.String()[before:])
	}
}

// TestRichProgressEtaBasisThreshold holds the ETA back until enough
// simulated cells exist to average over, even when plenty of time has
// passed.
func TestRichProgressEtaBasisThreshold(t *testing.T) {
	camp := telemetry.NewCampaign(10, false, nil)
	var buf bytes.Buffer
	p := newProgressPrinter(progressRich, &buf, 10, camp)
	cur := time.Unix(2000, 0)
	p.clock = func() time.Time { return cur }
	p.start = cur

	cur = cur.Add(5 * time.Second)
	for i := 0; i < etaMinBasis-1; i++ {
		camp.CellDone(telemetry.CellSample{Workload: "w", Machine: "m",
			ConfigJSON: []byte("{}"), Cycles: 1e6, Insts: 1e6,
			WallSeconds: 1, PortUtilization: -1, PortRejectRate: -1})
	}
	p.cellDone(telemetry.CellSample{})
	if got := buf.String(); strings.Contains(got, "ETA") {
		t.Errorf("ETA rendered below the %d-cell basis: %q", etaMinBasis, got)
	}
	if got := buf.String(); !strings.Contains(got, "Mcycles/s") {
		t.Errorf("rate missing despite measurable elapsed time: %q", got)
	}
}
