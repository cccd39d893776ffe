package experiments

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"portsim/internal/config"
	"portsim/internal/workload"
)

// sameDoc checks a hand-written hash document against json.Marshal's
// bytes for v: the same bytes, or an error from both.
func sameDoc(t *testing.T, what string, got []byte, gotErr error, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, json.Marshal's %v", what, gotErr, wantErr)
	}
	if gotErr == nil && string(got) != string(want) {
		t.Fatalf("%s:\ngot  %s\nwant %s", what, got, want)
	}
}

// checkHashDocs holds both appenders to json.Marshal for m and d, and the
// runner's hashes of them to the HashJSON of Marshal's bytes with the
// display labels cleared, as cell keys hash them.
func checkHashDocs(t *testing.T, what string, m *config.Machine, d *streamDoc) {
	t.Helper()
	var buf [hashDocSize]byte
	sameDoc(t, what+": machine", appendMachine(buf[:0], m), nil, m)
	doc, err := appendStream(buf[:0], d)
	sameDoc(t, what+": stream", doc, err, d)

	anon := *m
	anon.Name = ""
	want, _ := contentHash(&anon)
	if got := NewRunner(Spec{}).configHash(m); got != want {
		t.Fatalf("%s: configHash = %s, the reference %s", what, got, want)
	}
	s, err := streamSpec{prof: d.Profile, processes: d.Processes, quantum: d.Quantum}.hashed()
	clean := streamDoc{Profile: d.Profile}
	clean.Profile.Name, clean.Profile.Description = "", ""
	profHash, wantErr := contentHash(clean)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: hashing the stream: error %v, the reference's %v", what, err, wantErr)
	}
	if err != nil {
		return
	}
	clean.Processes, clean.Quantum = d.Processes, d.Quantum
	hash, _ := contentHash(clean)
	if s.profHash != profHash || s.hash != hash {
		t.Fatalf("%s: stream hashes %s and %s, the reference %s and %s", what, s.profHash, s.hash, profHash, hash)
	}
}

// TestHashDocsCoverEveryField sets each leaf field of a machine and of a
// profile with kernel regions in turn, and of the stream's process count
// and quantum, and requires the hand-written documents to stay
// json.Marshal's bytes: a field added to config.Machine or
// workload.Profile without its line in the appenders fails here, and so
// does a line that writes one field's value under another's name.
func TestHashDocsCoverEveryField(t *testing.T) {
	m := config.Baseline()
	prof, ok := workload.ByName("database")
	if !ok {
		t.Fatal("database workload missing")
	}
	d := streamDoc{Profile: prof}
	visited := 0
	check := func(path string) {
		visited++
		checkHashDocs(t, path, &m, &d)
	}
	eachLeaf(t, reflect.ValueOf(&m).Elem(), "Machine", check)
	eachLeaf(t, reflect.ValueOf(&d).Elem(), "Stream", check)
	if visited < 80 {
		t.Fatalf("visited only %d leaf fields; the walk is not reaching the configuration", visited)
	}
}

// hashGen fills machines and profiles with random values through
// reflection, so a field added later is generated without a line here.
type hashGen struct {
	*codecGen
	floats []reflect.Value // the float leaves of the value being filled
}

// fill sets every leaf reachable from the addressable value v: strings
// from the escaping fragments, floats from the codec generator's
// boundaries (−0, 1e-7, 1e21 and random bits) but finite, and slices nil,
// empty or of up to three elements.
func (g *hashGen) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			g.fill(v.Field(i))
		}
	case reflect.Slice:
		switch n := g.rng.Intn(5) - 1; {
		case n < 0:
			v.SetZero()
		default:
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := range n {
				g.fill(v.Index(i))
			}
		}
	case reflect.String:
		v.SetString(g.str(6))
	case reflect.Bool:
		v.SetBool(g.chance(0.5))
	case reflect.Int, reflect.Int64:
		switch g.rng.Intn(4) {
		case 0:
			v.SetInt(0)
		case 1:
			v.SetInt(int64(g.rng.Intn(1 << 20)))
		case 2:
			v.SetInt(-int64(g.rng.Intn(1 << 20)))
		default:
			v.SetInt(int64(int(g.rng.Uint64())))
		}
	case reflect.Uint8:
		v.SetUint(uint64(g.rng.Intn(256)))
	case reflect.Uint64:
		v.SetUint(g.uint())
	case reflect.Float64:
		f := g.float()
		for math.IsNaN(f) || math.IsInf(f, 0) {
			f = g.float()
		}
		v.SetFloat(f)
		g.floats = append(g.floats, v)
	default:
		panic("hashGen: no generator for " + v.Type().String())
	}
}

// FuzzContentHashMatchesJSON is the differential oracle of the cell key's
// hand-written hash documents: for random machines and stream documents
// (names with <>&, U+2028/2029, control bytes and invalid UTF-8; floats
// at −0, 1e-7, 1e21 and random bits; nil, empty and filled region
// slices; zero, positive and negative process counts and quanta),
// appendMachine and appendStream must write json.Marshal's bytes, and the
// runner's hashes must equal the reference's. One stream in five carries
// a NaN or an infinity, which both must refuse.
func FuzzContentHashMatchesJSON(f *testing.F) {
	for seed := range int64(16) {
		f.Add(seed, "")
	}
	f.Add(int64(7), "\xc3\x28<\u2028\x00")
	f.Fuzz(func(t *testing.T, seed int64, raw string) {
		g := &hashGen{codecGen: &codecGen{rng: rand.New(rand.NewSource(seed)), bytes: raw}}
		for range 8 {
			var m config.Machine
			var d streamDoc
			g.fill(reflect.ValueOf(&m).Elem())
			g.floats = g.floats[:0]
			g.fill(reflect.ValueOf(&d).Elem())
			if g.chance(0.2) {
				bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[g.rng.Intn(3)]
				g.floats[g.rng.Intn(len(g.floats))].SetFloat(bad)
			}
			checkHashDocs(t, "random", &m, &d)
		}
	})
}
