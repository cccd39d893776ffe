package trace_test

import (
	"testing"

	"portsim/internal/trace"
	"portsim/internal/workload"
)

// TestArenaFootprint pins what the packed layout buys, the way a cache test
// pins a way at two words: every built-in profile's trace, at the campaign
// benchmark's 40k instructions and seed 42, materialises at no more than
// 6.5 bytes per instruction (the column layout it replaced spent 22, and
// 64-bit stored values 8.6).
func TestArenaFootprint(t *testing.T) {
	const n = 40_000
	for _, name := range workload.Names() {
		prof, _ := workload.ByName(name)
		gen, err := workload.New(prof, 42)
		if err != nil {
			t.Fatal(err)
		}
		a := trace.Materialize(gen, n)
		if a.Len() != n {
			t.Fatalf("%s: materialised %d instructions, want %d", name, a.Len(), n)
		}
		if per := float64(a.Bytes()) / n; per > 6.5 {
			t.Errorf("%s: arena costs %.2f bytes per instruction, want <= 6.5", name, per)
		} else {
			t.Logf("%s: %.2f bytes per instruction", name, per)
		}
	}
}
