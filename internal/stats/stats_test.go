package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet()
	if got := s.Get("missing"); got != 0 {
		t.Errorf("untouched counter = %d, want 0", got)
	}
	s.Inc("a")
	s.Add("a", 4)
	s.Add("b", 10)
	if got := s.Get("a"); got != 5 {
		t.Errorf("a = %d, want 5", got)
	}
	if got := s.Get("b"); got != 10 {
		t.Errorf("b = %d, want 10", got)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names() = %v, want [a b] in creation order", names)
	}
}

func TestSetRatio(t *testing.T) {
	s := NewSet()
	s.Add("hits", 3)
	s.Add("accesses", 4)
	if got := s.Ratio("hits", "accesses"); got != 0.75 {
		t.Errorf("Ratio = %v, want 0.75", got)
	}
	if got := s.Ratio("hits", "never"); got != 0 {
		t.Errorf("Ratio with zero denominator = %v, want 0", got)
	}
}

// TestSetRatioZeroDenominator pins Ratio to SafeRatio's no-events rule for
// a denominator counter that exists but never fired — the case a cell with
// zero port accesses produces. The result must be exactly zero, never NaN
// or Inf leaking into a report table.
func TestSetRatioZeroDenominator(t *testing.T) {
	s := NewSet()
	s.Add("rejects", 7)
	s.Add("accesses", 0)
	got := s.Ratio("rejects", "accesses")
	if got != 0 {
		t.Errorf("Ratio(7, explicit 0) = %v, want 0", got)
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("Ratio(7, explicit 0) = %v; must be finite", got)
	}
}

func TestSetMerge(t *testing.T) {
	a, b := NewSet(), NewSet()
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Errorf("after merge x=%d y=%d, want 3 and 3", a.Get("x"), a.Get("y"))
	}
}

func TestSetString(t *testing.T) {
	s := NewSet()
	s.Add("zeta", 1)
	s.Add("alpha", 2)
	out := s.String()
	if !strings.Contains(out, "alpha=2") || !strings.Contains(out, "zeta=1") {
		t.Errorf("String() = %q missing counters", out)
	}
	if strings.Index(out, "alpha") > strings.Index(out, "zeta") {
		t.Errorf("String() not sorted: %q", out)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []uint64{0, 1, 1, 3, 7, 9} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if h.Sum() != 21 {
		t.Errorf("Sum = %d, want 21", h.Sum())
	}
	if h.Max() != 9 {
		t.Errorf("Max = %d, want 9", h.Max())
	}
	if h.Bucket(1) != 2 {
		t.Errorf("Bucket(1) = %d, want 2", h.Bucket(1))
	}
	if h.Overflow() != 2 {
		t.Errorf("Overflow = %d, want 2", h.Overflow())
	}
	if h.Bucket(100) != 2 {
		t.Errorf("Bucket(out of range) = %d, want overflow count 2", h.Bucket(100))
	}
	if got, want := h.Mean(), 21.0/6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
	if got := h.Fraction(1); math.Abs(got-2.0/6.0) > 1e-12 {
		t.Errorf("Fraction(1) = %v, want 1/3", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(2)
	if h.Mean() != 0 || h.Fraction(0) != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramPanicsOnZeroBuckets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(0) did not panic")
		}
	}()
	NewHistogram(0)
}

// TestHistogramConservation property: count equals the sum of all buckets
// plus overflow, for any sample sequence.
func TestHistogramConservation(t *testing.T) {
	f := func(samples []uint16) bool {
		h := NewHistogram(8)
		for _, s := range samples {
			h.Observe(uint64(s))
		}
		var total uint64
		for v := uint64(0); v < 8; v++ {
			total += h.Bucket(v)
		}
		total += h.Overflow()
		return total == h.Count() && h.Count() == uint64(len(samples))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{5}); math.Abs(got-5) > 1e-12 {
		t.Errorf("GeoMean(5) = %v, want 5", got)
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Error("GeoMean(nil) should be NaN")
	}
	if !math.IsNaN(GeoMean([]float64{1, 0})) {
		t.Error("GeoMean with zero should be NaN")
	}
	if !math.IsNaN(GeoMean([]float64{1, -2})) {
		t.Error("GeoMean with negative should be NaN")
	}
}

// TestGeoMeanBounds property: the geometric mean of positive values lies
// between the minimum and maximum.
func TestGeoMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			v := math.Abs(r)
			if v > 1e-6 && v < 1e6 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		g := GeoMean(xs)
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "workload", "ipc", "note")
	tb.AddRowf("compress", 1.234567, "ok")
	tb.AddRow("db", "2.0")
	out := tb.String()
	if !strings.Contains(out, "Figure X") {
		t.Errorf("missing title in %q", out)
	}
	if !strings.Contains(out, "1.235") {
		t.Errorf("float not formatted to 3 decimals in %q", out)
	}
	if !strings.Contains(out, "workload") || !strings.Contains(out, "---") {
		t.Errorf("missing header or separator in %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("got %d lines, want 5 (title, header, sep, 2 rows)", len(lines))
	}
}

func TestCellAndPercent(t *testing.T) {
	if got := Cell(float32(1.5)); got != "1.500" {
		t.Errorf("Cell(float32) = %q", got)
	}
	if got := Cell(42); got != "42" {
		t.Errorf("Cell(int) = %q", got)
	}
	if got := Percent(0.915); got != "91.5%" {
		t.Errorf("Percent = %q", got)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("Fig", "a", "b")
	tb.AddRow("x", "1,5")
	tb.AddRow(`say "hi"`, "2")
	out := tb.CSV()
	want := "# Fig\na,b\nx,\"1,5\"\n\"say \"\"hi\"\"\",2\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}

func TestTableCSVNoTitleNoHeader(t *testing.T) {
	tb := NewTable("")
	tb.AddRow("only", "row")
	if got := tb.CSV(); got != "only,row\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestSafeRatio(t *testing.T) {
	cases := []struct {
		num, den, want float64
	}{
		{1, 2, 0.5},
		{3, 0, 0}, // branch-free cell: no NaN
		{0, 0, 0}, // fully empty counters
		{-4, 2, -2},
		{5, 0.5, 10},
	}
	for _, c := range cases {
		if got := SafeRatio(c.num, c.den); got != c.want {
			t.Errorf("SafeRatio(%v, %v) = %v, want %v", c.num, c.den, got, c.want)
		}
	}
	if got := SafeRatio(1, 0); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("SafeRatio(1, 0) = %v; must be finite", got)
	}
}

func TestPortRejects(t *testing.T) {
	s := NewSet()
	if got := PortRejects(s); got != 0 {
		t.Errorf("empty set rejects = %d, want 0", got)
	}
	s.Add(PortRejectPortBusy, 3)
	s.Add(PortRejectMSHR, 2)
	s.Add(PortRejectStoreConflict, 1)
	s.Add(PortRejectBankConflict, 4)
	s.Add(PortGrants, 99) // not a rejection; must not be counted
	if got := PortRejects(s); got != 10 {
		t.Errorf("rejects = %d, want 10", got)
	}
	if len(PortRejectNames) != 4 {
		t.Errorf("PortRejectNames has %d entries, want the 4 rejection reasons", len(PortRejectNames))
	}
}
