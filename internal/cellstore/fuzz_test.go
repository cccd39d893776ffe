package cellstore

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzDecodeEntry drives envelope decoding with adversarial bytes: a
// decode either yields an entry that re-validates, or an error — never a
// panic. The corpus seeds the shapes the corruption table test covers:
// valid envelopes, truncations and bit flips.
func FuzzDecodeEntry(f *testing.F) {
	valid, err := EncodeEntry(&Entry{
		Key: Key{
			Config: hashOf(`{"ports":1}`),
			Stream: hashOf("compress"),
			Seed:   42,
			Insts:  40_000,
		},
		Machine:  "baseline",
		Workload: "compress",
		Result:   json.RawMessage(`{"cycles":123}`),
	})
	if err != nil {
		f.Fatal(err)
	}
	failure, err := EncodeEntry(&Entry{
		Key:      Key{Config: "abcdef012345", Stream: "0123456789ab", Seed: 7, Insts: 1000},
		Machine:  "dual",
		Workload: "eqntott",
		Failure: &Failure{
			Message:  "experiments: cell panicked: boom",
			Panicked: true,
			Stack:    "goroutine 1 [running]:\nmain.main()",
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(failure)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	f.Add([]byte(`{"schema":"` + Schema + `","checksum":"sha256:00","entry":{}}`))
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEntry(data)
		if err != nil {
			if e != nil {
				t.Fatal("DecodeEntry returned both an entry and an error")
			}
			return
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("decoded entry does not re-validate: %v", err)
		}
		// A decodable entry must re-encode and decode to the same key —
		// the content address survives the trip.
		data2, err := EncodeEntry(e)
		if err != nil {
			t.Fatalf("re-encode of decoded entry failed: %v", err)
		}
		e2, err := DecodeEntry(data2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if e2.Key != e.Key {
			t.Fatalf("key changed across re-encode: %+v vs %+v", e.Key, e2.Key)
		}
	})
}

// FuzzGetNeverPanics plants arbitrary bytes at a valid entry path and
// asserts the full store read path (decode + quarantine) never panics
// and always leaves the store usable.
func FuzzGetNeverPanics(f *testing.F) {
	k := Key{
		Config: hashOf(`{"ports":1}`),
		Stream: hashOf("compress"),
		Seed:   42,
		Insts:  40_000,
	}
	valid, err := EncodeEntry(&Entry{Key: k, Result: json.RawMessage(`{"cycles":1}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add([]byte("{"))
	f.Add([]byte{})

	// One store serves every exec: the fuzz target overwrites the same
	// entry slot each round, so corpus growth does not pay a per-exec
	// tempdir+Open tax.
	s, err := Open(f.TempDir(), Options{noSync: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.entryPath(k), data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get returned an error: %v", err)
		}
		if e != nil && e.Key != k {
			t.Fatalf("Get returned an entry for the wrong key: %+v", e.Key)
		}
		// Whatever happened, the store must still accept a clean Put and
		// serve it back.
		if err := s.Put(&Entry{Key: k, Result: json.RawMessage(`{"cycles":2}`)}); err != nil {
			t.Fatalf("Put after fuzzed Get failed: %v", err)
		}
		if got, _ := s.Get(k); got == nil {
			t.Fatal("store unusable after fuzzed Get")
		}
	})
}
