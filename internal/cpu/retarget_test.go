package cpu

import (
	"reflect"
	"strings"
	"testing"

	"portsim/internal/config"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// campaignVariants returns one machine per kind of change the experiment
// campaign sweeps: port count (F1), banking (A2), store-buffer depth (F2),
// port width (F3), line buffers (F4), combining (F5, A1), the proposed
// design (F6), prefetching (A3), speculative loads (A4), write-through
// (A5), arbitration order (A7) and wrong-path fetch (A8). They all share
// one array shape, which is what lets the runner's pool retarget any core
// to any of them.
func campaignVariants() []config.Machine {
	variant := func(m config.Machine, name string, edit func(*config.Machine)) config.Machine {
		m.Name = name
		edit(&m)
		return m
	}
	base := config.Baseline()
	return []config.Machine{
		base,
		config.DualPort(),
		config.QuadPort(),
		config.BestSingle(),
		config.Banked(4),
		variant(base, "sb-16", func(m *config.Machine) { m.Ports.StoreBufferEntries = 16 }),
		variant(base, "naive-32B", func(m *config.Machine) { m.Ports.WidthBytes = 32 }),
		variant(base, "loadall-4", func(m *config.Machine) {
			m.Ports.WidthBytes = 32
			m.Ports.LineBuffers = 4
		}),
		variant(base, "comb-true-16", func(m *config.Machine) {
			m.Ports.WidthBytes = 32
			m.Ports.StoreBufferEntries = 16
			m.Ports.StoreCombining = true
		}),
		variant(base, "prefetch", func(m *config.Machine) {
			m.Ports.PrefetchNextLine = true
			m.Ports.PrefetchDegree = 1
		}),
		variant(base, "mem-speculation", func(m *config.Machine) {
			m.Core.SpeculativeLoads = true
			m.Core.ViolationPenalty = 8
		}),
		variant(base, "write-through", func(m *config.Machine) { m.L1D.WriteThrough = true }),
		variant(base, "write-through-combining", func(m *config.Machine) {
			m.L1D.WriteThrough = true
			m.Ports.WidthBytes = 32
			m.Ports.StoreBufferEntries = 16
			m.Ports.StoreCombining = true
		}),
		variant(base, "stores-first", func(m *config.Machine) { m.Ports.StoresFirst = true }),
		variant(base, "wrong-path-fetch", func(m *config.Machine) { m.Core.WrongPathFetch = true }),
	}
}

// retargetStream returns a fresh generator for a workload at seed 42.
func retargetStream(t *testing.T, name string) trace.Stream {
	t.Helper()
	g, err := workload.New(mustProfile(t, name), 42)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runOutcome simulates insts instructions, keeping a failure as a value so
// a wedged machine can be compared with another wedged machine.
func runOutcome(c *Core, insts uint64) (*Result, error) {
	return c.Run(Options{
		MaxInstructions: insts,
		DeadlineCycles:  DeadlineFor(insts),
		StallCycles:     DefaultStallCycles,
	})
}

// TestRetargetMatchesFresh is the contract behind the runner's core pool
// across machines: a core that ran compress on machine A and was
// retargeted to machine B must run database exactly as a core built fresh
// for B does, for every ordered pair of the campaign's machine variants.
func TestRetargetMatchesFresh(t *testing.T) {
	const insts = 4_000
	machines := campaignVariants()
	fresh := make([]*Result, len(machines))
	for i := range machines {
		c, err := New(&machines[i], retargetStream(t, "database"))
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = resetRun(t, c, insts)
	}
	for i := range machines {
		for j := range machines {
			from, to := &machines[i], &machines[j]
			c, err := New(from, retargetStream(t, "compress"))
			if err != nil {
				t.Fatal(err)
			}
			resetRun(t, c, insts)
			ok, err := c.Retarget(to, retargetStream(t, "database"))
			if err != nil || !ok {
				t.Fatalf("%s -> %s: Retarget = %v, %v; every campaign machine shares one shape", from.Name, to.Name, ok, err)
			}
			requireSameResult(t, from.Name+" -> "+to.Name, resetRun(t, c, insts), fresh[j])
			checkInvariants(t, c)
		}
	}
}

// TestRetargetAllocatesNothing checks that a pooled core moves between
// port arrangements in place: once one core has run on every campaign
// variant, so each array the port sizes has reached its largest size,
// retargeting it through all of them again allocates nothing.
func TestRetargetAllocatesNothing(t *testing.T) {
	machines := campaignVariants()
	c, err := New(&machines[0], retargetStream(t, "compress"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range machines {
		if ok, err := c.Retarget(&machines[i], retargetStream(t, "compress")); err != nil || !ok {
			t.Fatalf("%s: Retarget = %v, %v", machines[i].Name, ok, err)
		}
		resetRun(t, c, 2_000)
	}
	stream := retargetStream(t, "database")
	if avg := testing.AllocsPerRun(5, func() {
		for i := range machines {
			if ok, err := c.Retarget(&machines[i], stream); err != nil || !ok {
				t.Fatalf("%s: Retarget = %v, %v", machines[i].Name, ok, err)
			}
		}
	}); avg != 0 {
		t.Errorf("retargeting through %d machines allocates %v objects; want 0", len(machines), avg)
	}
}

// shapeField reports whether a leaf path of config.Machine sizes an array
// a core allocates, so that Retarget must refuse to change it.
func shapeField(path string) bool {
	for _, block := range []string{"L1I.", "L1D.", "Mem.", "ITLB.", "DTLB.", "Pred."} {
		if strings.HasPrefix(path, "Machine."+block) {
			return path != "Machine.L1D.WriteThrough"
		}
	}
	switch path {
	case "Machine.Core.ROBEntries", "Machine.Core.StoreQueueEntries", "Machine.Core.FetchWidth",
		"Machine.Core.IntPhysRegs", "Machine.Core.FPPhysRegs":
		return true
	}
	return false
}

// eachMutation calls visit once per leaf field of the struct v, with the
// field set to the first candidate value under which valid() holds; the
// field is restored afterwards. Leaves with no valid candidate are passed
// to visit with ok false.
func eachMutation(t *testing.T, v reflect.Value, path string, valid func() bool, visit func(path string, ok bool)) {
	t.Helper()
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			eachMutation(t, v.Field(i), path+"."+v.Type().Field(i).Name, valid, visit)
		}
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	var candidates []reflect.Value
	switch v.Kind() {
	case reflect.Int:
		// +1 changes most counts and latencies; doubling keeps powers of
		// two; -1 is the way left for a value already at its ceiling.
		for _, n := range []int64{v.Int() + 1, 2 * v.Int(), v.Int() - 1} {
			if n != v.Int() {
				candidates = append(candidates, reflect.ValueOf(int(n)))
			}
		}
	case reflect.Bool:
		candidates = append(candidates, reflect.ValueOf(!v.Bool()))
	case reflect.String:
		candidates = append(candidates, reflect.ValueOf(v.String()+"x"))
	default:
		t.Fatalf("%s: no mutation for kind %s", path, v.Kind())
	}
	for _, c := range candidates {
		v.Set(c)
		if valid() {
			visit(path, true)
			v.Set(old)
			return
		}
	}
	v.Set(old)
	visit(path, false)
}

// TestRetargetCoversEveryField walks every leaf field of config.Machine.
// Each valid mutation of the baseline must either be refused by Retarget,
// leaving the core untouched, or simulate exactly like a core built fresh
// for the mutated machine; and the refused fields must be exactly the
// array shape (shapeField).
func TestRetargetCoversEveryField(t *testing.T) {
	const insts = 3_000
	orig := config.Baseline()
	m := orig
	// Each of these is valid only together with a partner field (or not at
	// all), so no single-field mutation passes Validate. TestRetargetMatchesFresh
	// covers the pairs through its mem-speculation and prefetch variants.
	// Pred.Kind has one legal value, so it has no valid mutation at all.
	noValidMutation := map[string]bool{
		"Machine.Core.SpeculativeLoads": true, "Machine.Core.ViolationPenalty": true,
		"Machine.Ports.PrefetchNextLine": true, "Machine.Ports.PrefetchDegree": true,
		"Machine.L1I.WriteThrough": true, "Machine.Mem.L2.WriteThrough": true,
		"Machine.Pred.Kind": true,
	}
	visited, refused := 0, 0
	check := func(path string, ok bool) {
		visited++
		if !ok {
			if !noValidMutation[path] {
				t.Errorf("%s: no valid mutation found", path)
			}
			return
		}
		if noValidMutation[path] {
			t.Errorf("%s: expected no valid single-field mutation", path)
		}
		c, err := New(&orig, retargetStream(t, "compress"))
		if err != nil {
			t.Fatal(err)
		}
		resetRun(t, c, insts)
		mutated := m // Retarget keeps a pointer: give it a stable copy
		before := c.stream
		ok, err = c.Retarget(&mutated, retargetStream(t, "database"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !ok {
			refused++
			if !shapeField(path) {
				t.Errorf("%s: Retarget refused a field that sizes no array", path)
			}
			if c.cfg != &orig || c.stream != before {
				t.Errorf("%s: a refused Retarget changed the core", path)
			}
			return
		}
		if shapeField(path) {
			t.Errorf("%s: Retarget accepted a change to the array shape", path)
		}
		got, gotErr := runOutcome(c, insts)
		f, err := New(&mutated, retargetStream(t, "database"))
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := runOutcome(f, insts)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: retargeted run error %v, fresh run error %v", path, gotErr, wantErr)
		}
		if gotErr == nil {
			requireSameResult(t, path, got, want)
		}
	}
	eachMutation(t, reflect.ValueOf(&m).Elem(), "Machine", func() bool { return m.Validate() == nil }, check)
	if visited < 70 {
		t.Fatalf("visited only %d leaf fields; the walk is not reaching the configuration", visited)
	}
	t.Logf("%d leaf fields: %d refused, %d without a valid mutation, the rest simulated like fresh",
		visited, refused, len(noValidMutation))
}

// TestRetargetRejectsBadInput checks that Retarget fails like New on a nil
// stream or an invalid machine, before touching the core.
func TestRetargetRejectsBadInput(t *testing.T) {
	m := config.Baseline()
	c, err := New(&m, retargetStream(t, "compress"))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Retarget(&m, nil); ok || err == nil {
		t.Errorf("nil stream: Retarget = %v, %v; want an error", ok, err)
	}
	bad := config.Baseline()
	bad.Ports.Count = 0
	if ok, err := c.Retarget(&bad, retargetStream(t, "compress")); ok || err == nil {
		t.Errorf("invalid machine: Retarget = %v, %v; want an error", ok, err)
	}
	if c.cfg != &m {
		t.Error("a failed Retarget changed the core's machine")
	}
}
