package cellstore

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// hashOf fingerprints v's JSON for a Key component, as the experiments
// layer's hand-written documents are fingerprinted: the HashJSON of what
// json.Marshal writes. Test fixtures always marshal.
func hashOf(v any) string {
	doc, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return HashJSON(doc)
}

// testKey returns a valid cell identity for tests; the workload name
// stands in for its stream's content.
func testKey(workload string) Key {
	return Key{
		Config: hashOf(`{"ports":1}`),
		Stream: hashOf(workload),
		Seed:   42,
		Insts:  40_000,
	}
}

// testEntry returns a valid result entry.
func testEntry(workload string) *Entry {
	return &Entry{
		Key:      testKey(workload),
		Machine:  "baseline",
		Workload: workload,
		Result:   json.RawMessage(`{"cycles":123,"insts":456}`),
	}
}

func open(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	e := testEntry("compress")
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(e.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("Get missed a just-Put entry")
	}
	if got.Key != e.Key || string(got.Result) != string(e.Result) {
		t.Errorf("roundtrip mutated the entry: %+v", got)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 0 || st.Quarantined != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGetMissOnEmptyStore(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	got, err := s.Get(testKey("compress"))
	if err != nil || got != nil {
		t.Fatalf("Get on empty store = %v, %v; want nil, nil", got, err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("stats = %+v, want one miss", st)
	}
}

func TestFailureEntryRoundtrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	e := &Entry{
		Key:     testKey("eqntott"),
		Failure: &Failure{Message: "watchdog: store buffer full", Panicked: false},
	}
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(e.Key)
	if err != nil || got == nil {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if got.Failure == nil || got.Failure.Message != e.Failure.Message {
		t.Errorf("failure lost in roundtrip: %+v", got)
	}
}

// TestPutIsDeterministic pins the content-addressing invariant: the same
// entry always encodes to the same bytes at the same path.
func TestPutIsDeterministic(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	for _, dir := range []string{dirA, dirB} {
		s := open(t, dir, Options{})
		if err := s.Put(testEntry("compress")); err != nil {
			t.Fatal(err)
		}
	}
	read := func(dir string) (string, []byte) {
		des, err := os.ReadDir(dir)
		if err != nil || len(des) != 1 {
			t.Fatalf("ReadDir(%s) = %v, %v; want one entry", dir, des, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, des[0].Name()))
		if err != nil {
			t.Fatal(err)
		}
		return des[0].Name(), data
	}
	nameA, bytesA := read(dirA)
	nameB, bytesB := read(dirB)
	if nameA != nameB || string(bytesA) != string(bytesB) {
		t.Errorf("identical entries encoded differently: %s vs %s", nameA, nameB)
	}
}

// TestKeyIdentity checks that every key coordinate, including the fault
// descriptor, separates the content address — a poisoned cell can never
// collide with its clean twin.
func TestKeyIdentity(t *testing.T) {
	base := testKey("compress")
	mutations := []func(*Key){
		func(k *Key) { k.Config = hashOf("other") },
		func(k *Key) { k.Stream = hashOf("eqntott") },
		func(k *Key) { k.Seed = 43 },
		func(k *Key) { k.Insts = 50_000 },
		func(k *Key) { k.Fault = "panic:compress:100" },
	}
	seen := map[string]bool{base.ID(): true}
	for i, mut := range mutations {
		k := base
		mut(&k)
		if seen[k.ID()] {
			t.Errorf("mutation %d did not change the key ID", i)
		}
		seen[k.ID()] = true
	}
}

// TestOpenSweepsTempFiles simulates a crash mid-Put: the leftover temp
// file must disappear on the next Open and never surface as an entry.
func TestOpenSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "put-123.tmp")
	if err := os.WriteFile(stale, []byte("half an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, dir, Options{})
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp file survived Open: %v", err)
	}
	if n, err := s.Scan(nil); err != nil || n != 0 {
		t.Errorf("Scan after sweep = %d, %v; want 0 entries", n, err)
	}
}

// TestCorruptShapesQuarantine is the corruption table test: every corrupt
// shape must quarantine (entry renamed *.corrupt, StoreError logged, miss
// returned) — never panic, never fail the campaign.
func TestCorruptShapesQuarantine(t *testing.T) {
	valid, err := EncodeEntry(testEntry("compress"))
	if err != nil {
		t.Fatal(err)
	}
	flip := func(data []byte, i int) []byte {
		out := append([]byte(nil), data...)
		out[i] ^= 0xff
		return out
	}
	reschema := func(data []byte) []byte {
		return []byte(strings.Replace(string(data), Schema, "portsim-cell/v999", 1))
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty file", nil},
		{"binary garbage", []byte{0x00, 0xff, 0x13, 0x37}},
		{"truncated half", valid[:len(valid)/2]},
		{"truncated tail", valid[:len(valid)-2]},
		{"flipped byte in body", flip(valid, len(valid)/2)},
		{"flipped byte in header", flip(valid, 15)},
		{"wrong schema", reschema(valid)},
		{"valid json wrong shape", []byte(`{"schema":"` + Schema + `","checksum":"x","entry":{"key":{}}}`)},
		{"entry with neither result nor failure", mustEncodeRaw(t, testKey("compress"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var logged []*StoreError
			s := open(t, t.TempDir(), Options{Logf: func(_ string, args ...any) {
				for _, a := range args {
					if se, ok := a.(*StoreError); ok {
						logged = append(logged, se)
					}
				}
			}})
			k := testKey("compress")
			path := s.entryPath(k)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(k)
			if err != nil || got != nil {
				t.Fatalf("Get on corrupt entry = %v, %v; want miss", got, err)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("corrupt entry not quarantined: %v", err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("corrupt entry still in place: %v", err)
			}
			st := s.Stats()
			if st.Quarantined != 1 || st.Misses != 1 {
				t.Errorf("stats = %+v, want one quarantine counted as a miss", st)
			}
			if len(logged) != 1 {
				t.Fatalf("%d store errors logged, want 1", len(logged))
			}
			if logged[0].Quarantined == "" || logged[0].Op != "get" {
				t.Errorf("StoreError = %+v, want op=get with quarantine path", logged[0])
			}
			// A re-Put must replace the quarantined slot and hit again.
			if err := s.Put(testEntry("compress")); err != nil {
				t.Fatal(err)
			}
			if got, _ := s.Get(k); got == nil {
				t.Error("re-Put after quarantine did not restore the entry")
			}
		})
	}
}

// bodyChecksum computes the envelope checksum of an entry body.
func bodyChecksum(body []byte) string {
	sum := sha256.Sum256(body)
	return string(appendChecksum(nil, &sum))
}

// mustEncodeRaw hand-builds an envelope whose body passes the checksum
// but violates the entry invariant (no result, no failure).
func mustEncodeRaw(t *testing.T, k Key) []byte {
	t.Helper()
	body, err := json.Marshal(&Entry{Key: k})
	if err != nil {
		t.Fatal(err)
	}
	env := struct {
		Schema   string          `json:"schema"`
		Checksum string          `json:"checksum"`
		Entry    json.RawMessage `json:"entry"`
	}{Schema, bodyChecksum(body), body}
	data, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGetRejectsKeyMismatch plants a valid entry at the wrong content
// address (a hash-scheme violation) and expects a quarantine.
func TestGetRejectsKeyMismatch(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	other := testEntry("eqntott")
	data, err := EncodeEntry(other)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("compress")
	if err := os.WriteFile(s.entryPath(k), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(k); err != nil || got != nil {
		t.Fatalf("Get on mismatched key = %v, %v; want miss", got, err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("stats = %+v, want quarantine", st)
	}
}

// TestQuarantineByCaller covers the experiments-layer escape hatch: an
// envelope that verifies but whose payload the caller cannot use.
func TestQuarantineByCaller(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	e := testEntry("compress")
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	s.Quarantine(e.Key, e.Key.ID(), errors.New("payload schema mismatch"))
	if got, _ := s.Get(e.Key); got != nil {
		t.Error("entry still readable after caller quarantine")
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestScanVisitsEntriesInStableOrder(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	for _, w := range []string{"compress", "eqntott", "database"} {
		if err := s.Put(testEntry(w)); err != nil {
			t.Fatal(err)
		}
	}
	// Plant one corrupt entry; Scan must skip and quarantine it.
	bad := filepath.Join(dir, strings.Repeat("ab", 16)+".cell.json")
	if err := os.WriteFile(bad, []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	var order1, order2 []string
	collect := func(dst *[]string) func(*Entry) error {
		return func(e *Entry) error {
			*dst = append(*dst, e.Workload)
			return nil
		}
	}
	n, err := s.Scan(collect(&order1))
	if err != nil || n != 3 {
		t.Fatalf("Scan = %d, %v; want 3 healthy entries", n, err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("stats = %+v, want the planted rot quarantined", st)
	}
	if n, err := s.Scan(collect(&order2)); err != nil || n != 3 {
		t.Fatalf("second Scan = %d, %v", n, err)
	}
	if strings.Join(order1, ",") != strings.Join(order2, ",") {
		t.Errorf("Scan order unstable: %v vs %v", order1, order2)
	}
}

// TestDegradedStoreIsInert drives the ioerr fault at rate 1 until Put
// exhausts its retries, then checks the store has shut itself off.
func TestDegradedStoreIsInert(t *testing.T) {
	var slept []time.Duration
	var logs []string
	s := open(t, t.TempDir(), Options{
		Fault: &Fault{Mode: FaultIOErr, Rate: 1},
		Sleep: func(d time.Duration) { slept = append(slept, d) },
		Logf:  func(f string, a ...any) { logs = append(logs, strings.TrimSpace(f)) },
	})
	e := testEntry("compress")
	err := s.Put(e)
	if err == nil {
		t.Fatal("Put under persistent ioerr returned nil")
	}
	if !errors.Is(err, ErrDegraded) {
		t.Errorf("Put error %v does not wrap ErrDegraded", err)
	}
	if len(slept) != putAttempts-1 {
		t.Errorf("%d backoff sleeps, want %d", len(slept), putAttempts-1)
	}
	for i := 1; i < len(slept); i++ {
		if slept[i] <= slept[i-1] {
			t.Errorf("backoff not increasing: %v", slept)
		}
	}
	st := s.Stats()
	if !st.Degraded || st.PutFailures != 1 {
		t.Errorf("stats = %+v, want degraded with one put failure", st)
	}
	// Degraded store: every operation is an inert no-op.
	if err := s.Put(e); err != nil {
		t.Errorf("Put on degraded store = %v, want silent no-op", err)
	}
	if got, err := s.Get(e.Key); got != nil || err != nil {
		t.Errorf("Get on degraded store = %v, %v", got, err)
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "WARNING") {
			found = true
		}
	}
	if !found {
		t.Error("degradation produced no warning log")
	}
}

// TestIOErrRetryRecovers uses a sub-1 rate so the first attempt faults
// and the retry lands: the entry must be durably written, no degrade.
func TestIOErrRetryRecovers(t *testing.T) {
	s := open(t, t.TempDir(), Options{
		Fault: &Fault{Mode: FaultIOErr, Rate: 0.5},
		Sleep: func(time.Duration) {},
	})
	// Rate 0.5 fires on every second eligible operation (n=2,4,...).
	// First Put: attempt 1 (n=1) clean → no retry needed.
	// Second Put: attempt 1 (n=2) faults, attempt 2 (n=3) clean.
	for i := 0; i < 2; i++ {
		e := testEntry([]string{"compress", "eqntott"}[i])
		if err := s.Put(e); err != nil {
			t.Fatalf("Put %d = %v", i, err)
		}
		if got, _ := s.Get(e.Key); got == nil {
			t.Fatalf("Put %d not durably written", i)
		}
	}
	st := s.Stats()
	if st.Degraded || st.Puts != 2 || st.PutFailures != 0 {
		t.Errorf("stats = %+v, want two clean puts after retry", st)
	}
}

// TestTornPutQuarantinesOnRead: a torn write is visible (that is the
// point of the fault) but the next Get must detect and quarantine it.
func TestTornPutQuarantinesOnRead(t *testing.T) {
	s := open(t, t.TempDir(), Options{Fault: &Fault{Mode: FaultTorn, Rate: 1}})
	e := testEntry("compress")
	if err := s.Put(e); err != nil {
		t.Fatalf("torn Put reported failure: %v", err)
	}
	got, err := s.Get(e.Key)
	if err != nil || got != nil {
		t.Fatalf("Get on torn entry = %v, %v; want quarantine miss", got, err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCorruptPutQuarantinesOnRead: post-Put bit flips must be caught by
// the checksum on the next Get.
func TestCorruptPutQuarantinesOnRead(t *testing.T) {
	s := open(t, t.TempDir(), Options{Fault: &Fault{Mode: FaultCorrupt, Rate: 1}})
	e := testEntry("compress")
	if err := s.Put(e); err != nil {
		t.Fatalf("Put = %v", err)
	}
	got, err := s.Get(e.Key)
	if err != nil || got != nil {
		t.Fatalf("Get on corrupted entry = %v, %v; want quarantine miss", got, err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestParseStoreFault(t *testing.T) {
	f, err := ParseFault("torn")
	if err != nil || f.Mode != FaultTorn || f.Rate != 1 {
		t.Errorf("ParseFault(torn) = %+v, %v", f, err)
	}
	if f.String() != "torn" {
		t.Errorf("String() = %q", f.String())
	}
	f, err = ParseFault("corrupt:0.25")
	if err != nil || f.Mode != FaultCorrupt || f.Rate != 0.25 {
		t.Errorf("ParseFault(corrupt:0.25) = %+v, %v", f, err)
	}
	if f.String() != "corrupt:0.25" {
		t.Errorf("String() = %q", f.String())
	}
	for _, bad := range []string{"", "frob", "torn:0", "torn:2", "torn:-1", "torn:x", "torn:0.5:9"} {
		if _, err := ParseFault(bad); err == nil {
			t.Errorf("ParseFault(%q) accepted", bad)
		}
	}
}

// TestFaultRateSchedule pins the deterministic firing schedule.
func TestFaultRateSchedule(t *testing.T) {
	f := &Fault{Mode: FaultTorn, Rate: 0.25}
	var fired []uint64
	for n := uint64(1); n <= 12; n++ {
		if f.fires(n) {
			fired = append(fired, n)
		}
	}
	want := []uint64{4, 8, 12}
	if len(fired) != len(want) {
		t.Fatalf("fired on %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired on %v, want %v", fired, want)
		}
	}
	full := &Fault{Mode: FaultTorn, Rate: 1}
	for n := uint64(1); n <= 5; n++ {
		if !full.fires(n) {
			t.Errorf("rate 1 did not fire on operation %d", n)
		}
	}
}

// TestContentHashWidth pins the key-component hash shape.
func TestContentHashWidth(t *testing.T) {
	h := hashOf(`{"ports":1}`)
	if len(h) != 32 {
		t.Errorf("HashJSON width = %d hex chars, want 32", len(h))
	}
	if h == hashOf(`{"ports":2}`) {
		t.Error("distinct documents hash identically")
	}
}

// TestStoreOpAllocations bounds what one Put and one Get hit allocate on
// a store that skips its fsyncs, 12 and 9 objects: the entry path and
// the file system's own (the temp file, its name and the rename on a Put;
// the file, its size and its bytes on a Get), plus the encoded entry on a
// Put and, on a Get, the decoded entry and its labels; the key's strings
// are the caller's, and the result payload stays in the file's bytes. The
// encoding/json codecs made 18 and 28, and a Key.ID 3; a Get that copies
// the payload out makes 10.
func TestStoreOpAllocations(t *testing.T) {
	const maxPut, maxGet = 14, 9
	s := open(t, t.TempDir(), Options{noSync: true})
	e := testEntry("compress")
	id := e.Key.ID()
	put := testing.AllocsPerRun(50, func() {
		if err := s.PutID(e, id); err != nil {
			t.Fatal(err)
		}
	})
	get := testing.AllocsPerRun(50, func() {
		if got, err := s.GetID(e.Key, id); got == nil || err != nil {
			t.Fatalf("Get = %v, %v", got, err)
		}
	})
	keyID := testing.AllocsPerRun(50, func() { _ = e.Key.ID() })
	t.Logf("Put allocates %v objects, a Get hit %v, Key.ID %v", put, get, keyID)
	if put > maxPut || get > maxGet || keyID > 1 {
		t.Errorf("Put allocates %v objects, a Get hit %v, Key.ID %v; want at most %d, %d and 1", put, get, keyID, maxPut, maxGet)
	}
}
