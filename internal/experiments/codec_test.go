package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"portsim/internal/cellstore"
	"portsim/internal/cpu"
	"portsim/internal/cpustack"
	"portsim/internal/stats"
)

// This file holds the differential oracle of the two hand-written codecs:
// the store's envelope (cellstore.EncodeEntry, DecodeEntry, Key.ID) and
// the result payload (encodeResult, decodeResult). The references are the
// encoding/json implementations they replaced, kept here verbatim in what
// they do.

// storedResult is a stored result's JSON form.
type storedResult struct {
	Cycles        uint64            `json:"cycles"`
	Instructions  uint64            `json:"instructions"`
	UserInsts     uint64            `json:"user_insts"`
	KernelInsts   uint64            `json:"kernel_insts"`
	Loads         uint64            `json:"loads"`
	Stores        uint64            `json:"stores"`
	Branches      uint64            `json:"branches"`
	Mispredicts   uint64            `json:"mispredicts"`
	IPC           float64           `json:"ipc"`
	CounterNames  []string          `json:"counter_names"`
	CounterValues []uint64          `json:"counter_values"`
	CPIStack      map[string]uint64 `json:"cpi_stack,omitempty"`
}

// jsonEncodeResult is encodeResult by json.Marshal.
func jsonEncodeResult(res *cpu.Result) (json.RawMessage, error) {
	sr := storedResult{
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		UserInsts:    res.UserInsts,
		KernelInsts:  res.KernelInsts,
		Loads:        res.Loads,
		Stores:       res.Stores,
		Branches:     res.Branches,
		Mispredicts:  res.Mispredicts,
		IPC:          res.IPC,
		CPIStack:     res.CPIStack.Map(),
	}
	if res.Counters != nil {
		sr.CounterNames = res.Counters.Names()
		sr.CounterValues = make([]uint64, len(sr.CounterNames))
		for i, name := range sr.CounterNames {
			sr.CounterValues[i] = res.Counters.Get(name) //portlint:ignore counterhygiene name ranges over Counters.Names()
		}
	}
	return json.Marshal(&sr)
}

// jsonDecodeResult is decodeResult by json.Unmarshal and cpustack.FromMap.
func jsonDecodeResult(raw json.RawMessage) (*cpu.Result, error) {
	var sr storedResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, fmt.Errorf("experiments: stored result not parseable: %w", err)
	}
	if len(sr.CounterNames) != len(sr.CounterValues) {
		return nil, fmt.Errorf("experiments: stored result has %d counter names but %d values",
			len(sr.CounterNames), len(sr.CounterValues))
	}
	stack, err := cpustack.FromMap(sr.CPIStack)
	if err != nil {
		return nil, fmt.Errorf("experiments: stored result: %w", err)
	}
	counters := stats.MakeSet(make([]string, len(sr.CounterNames)), make([]uint64, len(sr.CounterNames)))
	res := &cpu.Result{
		Cycles: sr.Cycles, Instructions: sr.Instructions, UserInsts: sr.UserInsts, KernelInsts: sr.KernelInsts,
		Loads: sr.Loads, Stores: sr.Stores, Branches: sr.Branches, Mispredicts: sr.Mispredicts,
		IPC: sr.IPC, Counters: &counters, CPIStack: stack,
	}
	for i, name := range sr.CounterNames {
		res.Counters.Add(name, sr.CounterValues[i]) //portlint:ignore counterhygiene the reference restores stored names verbatim
	}
	return res, nil
}

// jsonEnvelope is the entry file's JSON form.
type jsonEnvelope struct {
	Schema   string          `json:"schema"`
	Checksum string          `json:"checksum"`
	Entry    json.RawMessage `json:"entry"`
}

// jsonChecksum is the envelope checksum of an entry body.
func jsonChecksum(body []byte) string {
	sum := sha256.Sum256(body)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// jsonEncodeEntry is cellstore.EncodeEntry by json.Marshal.
func jsonEncodeEntry(e *cellstore.Entry) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(&jsonEnvelope{Schema: cellstore.Schema, Checksum: jsonChecksum(body), Entry: body})
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// jsonDecodeEntry is cellstore.DecodeEntry by json.Unmarshal.
func jsonDecodeEntry(data []byte) (*cellstore.Entry, error) {
	var env jsonEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.Schema != cellstore.Schema {
		return nil, fmt.Errorf("schema %q", env.Schema)
	}
	if len(env.Entry) == 0 {
		return nil, fmt.Errorf("no entry body")
	}
	if got := jsonChecksum(env.Entry); got != env.Checksum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	var e cellstore.Entry
	if err := json.Unmarshal(env.Entry, &e); err != nil {
		return nil, err
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// codecGen draws the codecs' inputs: strings that exercise every escape
// json.Marshal writes, results, keys and entries.
type codecGen struct {
	rng   *rand.Rand
	bytes string // fuzzer-chosen raw bytes, drawn on as one more fragment
}

// fragments are the pieces strings are drawn from: plain text, what
// Marshal escapes (quotes, backslashes, control bytes, <>&, U+2028/2029),
// what it coerces (invalid and surrogate UTF-8) and what it leaves
// (multibyte runes, DEL, U+FFFD).
var fragments = []string{
	"a", "Z", "0", " ", "-", ".", "/", "<", ">", "&", "\"", "\\", "\n", "\t", "\r", "\b", "\f",
	"\x00", "\x01", "\x1f", "\x7f", "\u2028", "\u2029", "é", "日本", "😀", "\ufffd",
	"\xff", "\xe2\x80", "\xed\xa0\x80", "port.grants", "cache.l1d.misses",
}

func (g *codecGen) chance(p float64) bool { return g.rng.Float64() < p }

func (g *codecGen) str(maxFrags int) string {
	var b strings.Builder
	for range g.rng.Intn(maxFrags + 1) {
		if g.bytes != "" && g.chance(0.1) {
			i := g.rng.Intn(len(g.bytes))
			b.WriteString(g.bytes[i:min(len(g.bytes), i+1+g.rng.Intn(4))])
			continue
		}
		b.WriteString(fragments[g.rng.Intn(len(fragments))])
	}
	return b.String()
}

func (g *codecGen) uint() uint64 {
	switch g.rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return uint64(g.rng.Intn(1000))
	case 2:
		return math.MaxUint64 - uint64(g.rng.Intn(3))
	}
	return g.rng.Uint64()
}

func (g *codecGen) float() float64 {
	switch g.rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 1e-7 * g.rng.Float64()
	case 3:
		return 1e21 * (1 + g.rng.Float64())
	case 4:
		return math.Float64frombits(g.rng.Uint64())
	case 5:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}[g.rng.Intn(5)]
	}
	return 4 * g.rng.Float64()
}

func (g *codecGen) result() *cpu.Result {
	res := &cpu.Result{
		Cycles: g.uint(), Instructions: g.uint(), UserInsts: g.uint(), KernelInsts: g.uint(),
		Loads: g.uint(), Stores: g.uint(), Branches: g.uint(), Mispredicts: g.uint(), IPC: g.float(),
	}
	switch g.rng.Intn(8) {
	case 0:
	case 1:
		res.Counters = new(stats.Set)
	default:
		res.Counters = cpu.NewResult().Counters
		names := []string{stats.Cycles, stats.PortGrants, stats.L1DMisses, stats.DRAMAccesses}
		for range g.rng.Intn(12) {
			name := g.str(3)
			if g.chance(0.5) {
				name = names[g.rng.Intn(len(names))]
			}
			res.Counters.Add(name, g.uint()) //portlint:ignore counterhygiene generated names
		}
	}
	if g.chance(0.6) {
		res.CPIStack = new(cpustack.Snapshot)
		for b := range res.CPIStack.Buckets {
			if g.chance(0.5) {
				res.CPIStack.Buckets[b] = g.uint()
			}
		}
	}
	return res
}

func (g *codecGen) key() cellstore.Key {
	k := cellstore.Key{Stream: g.str(4), Seed: int64(g.uint()), Insts: g.uint()}
	if g.chance(0.8) {
		k.Config = g.str(4)
	}
	if g.chance(0.3) {
		k.Fault = g.str(4)
	}
	return k
}

// entry returns an entry and, for a result entry, the result whose
// payload it carries (nil when the payload is some other JSON document).
func (g *codecGen) entry(t *testing.T) (*cellstore.Entry, *cpu.Result) {
	e := &cellstore.Entry{Key: g.key()}
	if g.chance(0.7) {
		e.Machine = g.str(3)
	}
	if g.chance(0.7) {
		e.Workload = g.str(3)
	}
	switch g.rng.Intn(6) {
	case 0:
		e.Failure = &cellstore.Failure{Message: g.str(5), Panicked: g.chance(0.5)}
		if g.chance(0.5) {
			e.Failure.Stack = g.str(8)
		}
		return e, nil
	case 1:
		// Any JSON document, spelled loosely: the envelope compacts it.
		doc, _ := json.Marshal(map[string]any{"k": g.str(3), "n": []any{1, g.str(2), nil, true}})
		e.Result = (&speller{g: g}).respell(t, doc)
		return e, nil
	case 2:
		e.Result = json.RawMessage(g.str(3))
		return e, nil
	}
	res := g.result()
	raw, err := encodeResult(res)
	if err != nil {
		return e, nil
	}
	e.Result = raw
	return e, res
}

// speller re-spells a JSON document as another writer might: any
// whitespace, member order and string escapes, with nulls in place of
// values, repeated members, field names in other letter case and members
// no reader knows. A spelling changes what the document decodes to only
// through its nulls, repeats and case.
type speller struct {
	g *codecGen
}

// respell parses doc and writes it again.
func (s *speller) respell(t *testing.T, doc []byte) []byte {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("respell: %v", err)
	}
	return s.value(nil, v)
}

func (s *speller) space(dst []byte) []byte {
	for s.g.chance(0.2) {
		dst = append(dst, " \t\n\r"[s.g.rng.Intn(4)])
	}
	return dst
}

func (s *speller) value(dst []byte, v any) []byte {
	dst = s.space(dst)
	switch v := v.(type) {
	case nil:
		dst = append(dst, "null"...)
	case bool:
		dst = fmt.Append(dst, v)
	case json.Number:
		dst = append(dst, v...)
	case string:
		dst = s.str(dst, v)
	case []any:
		dst = append(dst, '[')
		for i, e := range v {
			if i > 0 {
				dst = append(s.space(dst), ',')
			}
			dst = s.value(dst, e)
		}
		dst = append(s.space(dst), ']')
	case map[string]any:
		names := make([]string, 0, len(v))
		for name := range v {
			names = append(names, name)
		}
		slices.Sort(names)
		s.g.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		dst = append(dst, '{')
		for i, name := range names {
			sep := s.space(nil)
			if i > 0 {
				sep = append(sep, ',')
			}
			if s.g.chance(0.05) {
				unknown := map[string]any{"n": json.Number("1"), "a": []any{s.g.str(2), nil}}
				dst = s.member(append(dst, sep...), "x-"+s.g.str(2), s.value(nil, unknown))
				sep = []byte{','}
			}
			val := v[name]
			spelled := name
			if s.g.chance(0.03) {
				spelled = strings.ToUpper(name[:1]) + name[1:]
			}
			if s.g.chance(0.03) {
				dst = s.member(append(dst, sep...), spelled, s.value(nil, val))
				sep = []byte{','}
			}
			if s.g.chance(0.03) {
				val = nil
			}
			dst = s.member(append(dst, sep...), spelled, s.value(nil, val))
		}
		dst = append(s.space(dst), '}')
	}
	return s.space(dst)
}

// member writes one object member: its name, a colon and the value's
// bytes.
func (s *speller) member(dst []byte, name string, value []byte) []byte {
	dst = s.space(s.str(s.space(dst), name))
	return append(append(dst, ':'), value...)
}

// shortEscapes are the two-byte escapes a JSON writer may use instead of
// \uXXXX.
var shortEscapes = map[rune]string{'"': `\"`, '\\': `\\`, '/': `\/`, '\b': `\b`, '\f': `\f`, '\n': `\n`, '\r': `\r`, '\t': `\t`}

// str writes a JSON string of text, choosing for each rune whether to
// escape it, and now and then adding a raw invalid byte or a lone
// surrogate escape, which both read as U+FFFD.
func (s *speller) str(dst []byte, text string) []byte {
	dst = append(dst, '"')
	for _, r := range text {
		switch {
		case s.g.chance(0.01):
			dst = append(dst, "\xff"...)
		case s.g.chance(0.01):
			dst = append(dst, `\udc00`...)
		}
		switch {
		case r == '"' || r == '\\' || r < ' ' || s.g.chance(0.2):
			if short, ok := shortEscapes[r]; ok && s.g.chance(0.5) {
				dst = append(dst, short...)
				continue
			}
			format := "\\u%04x"
			if s.g.chance(0.5) {
				format = "\\u%04X"
			}
			if r > 0xFFFF {
				r1, r2 := utf16Pair(r)
				dst = fmt.Appendf(dst, format+format, r1, r2)
				continue
			}
			dst = fmt.Appendf(dst, format, r)
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return append(dst, '"')
}

// utf16Pair is the surrogate pair of a rune above the basic plane.
func utf16Pair(r rune) (rune, rune) {
	r -= 0x10000
	return 0xD800 + r>>10, 0xDC00 + r&0x3FF
}

// sameOutcome fails unless got and want are the same value, or both errors.
func sameOutcome[T any](t *testing.T, what string, got T, gotErr error, want T, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, encoding/json's %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\ngot  %+v\nwant %+v", what, got, want)
	}
}

// FuzzEntryCodecMatchesJSON is the differential oracle of both codecs.
// The encoders must write json.Marshal's bytes for random entries, keys
// and results, and the decoders must return what encoding/json returns
// for the written documents and for random re-spellings of them, whose
// checksums are recomputed so that the envelope still verifies.
func FuzzEntryCodecMatchesJSON(f *testing.F) {
	for seed := range int64(16) {
		f.Add(seed, "")
	}
	f.Add(int64(7), "\xc3\x28<\u2028\x00")
	f.Fuzz(func(t *testing.T, seed int64, raw string) {
		g := &codecGen{rng: rand.New(rand.NewSource(seed)), bytes: raw}
		for range 8 {
			e, res := g.entry(t)
			if res != nil {
				got, gotErr := encodeResult(res)
				want, wantErr := jsonEncodeResult(res)
				sameOutcome(t, "encodeResult", string(got), gotErr, string(want), wantErr)
			}
			if id, want := e.Key.ID(), mustHash(t, e.Key); id != want {
				t.Fatalf("Key.ID = %s, contentHash = %s for %+v", id, want, e.Key)
			}
			data, err := cellstore.EncodeEntry(e)
			want, wantErr := jsonEncodeEntry(e)
			sameOutcome(t, "EncodeEntry", string(data), err, string(want), wantErr)
			if err != nil {
				continue
			}
			for i := range 4 {
				doc := data
				if i > 0 {
					doc = respellEnvelope(t, g, data)
				}
				got, err := cellstore.DecodeEntry(doc)
				want, wantErr := jsonDecodeEntry(doc)
				sameOutcome(t, fmt.Sprintf("DecodeEntry(%q)", doc), got, err, want, wantErr)
				if err != nil || len(got.Result) == 0 {
					continue
				}
				gotRes, err := decodeResult(got.Result)
				wantRes, wantErr := jsonDecodeResult(got.Result)
				sameOutcome(t, fmt.Sprintf("decodeResult(%s)", got.Result), gotRes, err, wantRes, wantErr)
			}
		}
	})
}

// contentHash is the reference of every hand-written key component: the
// HashJSON of v as json.Marshal writes it.
func contentHash(v any) (string, error) {
	doc, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return cellstore.HashJSON(doc), nil
}

// mustHash is contentHash of a key, the reference of Key.ID.
func mustHash(t *testing.T, k cellstore.Key) string {
	t.Helper()
	h, err := contentHash(k)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// respellEnvelope re-spells an entry file: its body, result payload
// included, and then the envelope around it, with the body's checksum
// recomputed and the schema and checksum strings escaped at random.
func respellEnvelope(t *testing.T, g *codecGen, data []byte) []byte {
	var env jsonEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	s := &speller{g: g}
	// The checksum covers the body's bytes, not the whitespace around it.
	body := bytes.Trim(s.respell(t, env.Entry), " \t\n\r")
	members := [][]byte{
		s.member(nil, "schema", s.value(nil, cellstore.Schema)),
		s.member(nil, "checksum", s.value(nil, jsonChecksum(body))),
		s.member(nil, "entry", s.space(append(s.space(nil), body...))),
	}
	if g.chance(0.2) {
		members = append(members, s.member(nil, "x-unknown", s.value(nil, []any{json.Number("2"), "v"})))
	}
	g.rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	doc := append(s.space(nil), '{')
	for i, m := range members {
		if i > 0 {
			doc = append(doc, ',')
		}
		doc = append(doc, m...)
	}
	return append(s.space(append(doc, '}')), '\n')
}
