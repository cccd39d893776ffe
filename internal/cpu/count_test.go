//go:build portsimcount

package cpu

import (
	"testing"

	"portsim/internal/config"
	"portsim/internal/workload"
)

// TestWorkCountsPinned pins the scheduler's deterministic work counts
// (count_on.go) for two workloads on two machines at 30k instructions. The
// counts depend only on the model and its worklists, not on the host, so a
// change that makes the issue or LSQ bookkeeping do more work per cycle
// fails here on any machine, where a throughput floor would not notice. A
// deliberate change re-pins the table from the test's log.
//
// Run with: go test -tags portsimcount -run TestWorkCountsPinned ./internal/cpu
func TestWorkCountsPinned(t *testing.T) {
	const insts = 30_000
	want := map[string]struct {
		cycles uint64
		work   workCounts
	}{
		"baseline-1port/compress": {24090, workCounts{liveVisits: 58509, wakeFilings: 12597, sqWalkSteps: 55401, tryLoads: 17750}},
		"baseline-1port/database": {42047, workCounts{liveVisits: 56624, wakeFilings: 11632, sqWalkSteps: 62141, tryLoads: 24901}},
		"best-single/compress":    {21631, workCounts{liveVisits: 70094, wakeFilings: 13008, sqWalkSteps: 49606, tryLoads: 19908}},
		"best-single/database":    {38146, workCounts{liveVisits: 66814, wakeFilings: 12107, sqWalkSteps: 57658, tryLoads: 31680}},
	}
	for _, m := range []config.Machine{config.Baseline(), config.BestSingle()} {
		for _, w := range []string{"compress", "database"} {
			m := m
			name := m.Name + "/" + w
			t.Run(name, func(t *testing.T) {
				g, err := workload.New(mustProfile(t, w), 42)
				if err != nil {
					t.Fatal(err)
				}
				c, err := New(&m, g)
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run(Options{MaxInstructions: insts, DeadlineCycles: DeadlineFor(insts)})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%s: %d cycles, %+v", name, res.Cycles, c.work)
				exp, ok := want[name]
				if !ok {
					t.Fatalf("no pinned counts for %s", name)
				}
				if res.Cycles != exp.cycles {
					t.Errorf("%d cycles, want %d: the model changed, so the counts below say nothing", res.Cycles, exp.cycles)
				}
				if c.work != exp.work {
					t.Errorf("work counts %+v, want %+v", c.work, exp.work)
				}
			})
		}
	}
}
