package cpu

import (
	"runtime"
	"testing"

	"portsim/internal/config"
	"portsim/internal/core"
	"portsim/internal/cpustack"
	"portsim/internal/diag"
	"portsim/internal/workload"
)

// TestStepDoesNotAllocate is the tentpole's regression guard: once the
// pipeline is warm, advancing the machine one cycle must not touch the heap.
// step() is the tightest steppable unit — Run is a loop around it — so a
// zero here means the whole steady-state cycle loop is allocation-free. The
// warm-up phase absorbs one-time growth (MSHR slices, store-buffer scratch,
// the batched-stream chunk buffer) that is amortised, not steady-state.
func TestStepDoesNotAllocate(t *testing.T) {
	for _, m := range []config.Machine{config.Baseline(), config.BestSingle()} {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			g, err := workload.New(mustProfile(t, "compress"), 42)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(&m, g)
			if err != nil {
				t.Fatal(err)
			}
			// The generator never ends, so the machine cannot drain
			// mid-measurement.
			for i := 0; i < 20_000; i++ {
				c.step()
			}
			if avg := testing.AllocsPerRun(2000, c.step); avg != 0 {
				t.Errorf("step allocates %v objects/cycle in steady state; want 0", avg)
			}
		})
	}
}

// TestStepDoesNotAllocateWithRecorder extends the guard to the telemetry
// path: the hot loop must stay allocation-free both with the flight
// recorder disabled (nil — the default when no telemetry flag is set;
// every Record call nil-checks and returns) and with a deep trace ring
// armed, where Record writes events into pre-allocated storage. Together
// with TestStepDoesNotAllocate this proves -trace-out costs the cycle
// loop nothing but the ring writes, and costs it literally nothing when
// off.
func TestStepDoesNotAllocateWithRecorder(t *testing.T) {
	for _, depth := range []int{0, 1 << 16} {
		m := config.BestSingle()
		name := "armed"
		if depth == 0 {
			name = "nil"
		}
		t.Run(name, func(t *testing.T) {
			g, err := workload.New(mustProfile(t, "compress"), 42)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(&m, g)
			if err != nil {
				t.Fatal(err)
			}
			var rec *diag.Recorder
			if depth > 0 {
				rec = diag.NewRecorder(depth)
			}
			c.rec = rec
			c.port.SetRecorder(rec)
			for i := 0; i < 20_000; i++ {
				c.step()
			}
			if avg := testing.AllocsPerRun(2000, c.step); avg != 0 {
				t.Errorf("step with %s recorder allocates %v objects/cycle; want 0", name, avg)
			}
			if depth > 0 && rec.Len() == 0 {
				t.Error("armed recorder captured no events")
			}
		})
	}
}

// TestResultAllocations pins the per-cell cost of building a Result: the
// result, its counter set and the set's names and values are one block
// (NewResult), sized for every counter result writes, and the
// data-dependent counter names are precomputed, so a result is one
// allocation whatever the machine, and one more with a CPI stack, its
// snapshot. It was 4 when the result, the set and its two slices were
// separate objects, and 31-38 when the set grew per counter and the names
// were built per call.
func TestResultAllocations(t *testing.T) {
	const maxAllocs = 1
	machines := []config.Machine{config.Baseline(), config.BestSingle(), config.DualPort(), config.QuadPort(), config.Banked(8)}
	for _, m := range machines {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			g, err := workload.New(mustProfile(t, "database"), 42)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(&m, g)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20_000; i++ {
				c.step()
			}
			if n, limit := c.result().Counters.Len(), resultCounters+core.SlotsPerCycle(m.Ports); n > limit || n > resultRoom {
				t.Errorf("result wrote %d counters, more than the %d it bounds them by or the %d a result holds", n, limit, resultRoom)
			}
			if avg := testing.AllocsPerRun(100, func() { c.result() }); avg > maxAllocs {
				t.Errorf("result allocates %v objects; want at most %d", avg, maxAllocs)
			}
			c.acct = cpustack.NewStack()
			if avg := testing.AllocsPerRun(100, func() { c.result() }); avg > maxAllocs+1 {
				t.Errorf("result with a CPI stack allocates %v objects; want at most %d", avg, maxAllocs+1)
			}
		})
	}
}

// TestNewFootprint bounds the heap one core costs to build. A pooled core
// stays resident for a whole campaign, and its cache tag arrays dominate:
// with 16-byte ways in one flat array per level, config.Baseline() builds
// in 337 KiB, so the bound fails if a way or a per-set header comes back.
func TestNewFootprint(t *testing.T) {
	const maxBytes = 360 << 10
	g, err := workload.New(mustProfile(t, "compress"), 42)
	if err != nil {
		t.Fatal(err)
	}
	m := config.Baseline()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := New(&m, g)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(c)
	if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
		t.Errorf("cpu.New(config.Baseline()) allocated %d bytes; want at most %d", got, maxBytes)
	}
}
