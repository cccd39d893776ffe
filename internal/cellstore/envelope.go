// Package cellstore is the durable, content-addressed store behind the
// experiment engine's in-process memo: one file per finished cell, keyed
// by the cell's content identity (machine-config hash, instruction-stream
// hash, seed, insts, fault), so a killed campaign resumes with only its
// unfinished cells re-simulated. Display names are labels on an entry,
// never part of its identity.
//
// The store is deliberately ignorant of the simulator: entries carry an
// opaque JSON payload (portlint's layerimports analyzer forbids this
// package from importing internal/{core,cpu,mem}), and the experiments
// layer owns the encoding of results and cell failures. What the store
// does own is durability, integrity and the cost of a lookup:
//
//   - Crash-safe writes: every Put lands via temp file + fsync + atomic
//     rename (+ directory fsync), so a process killed mid-Put leaves at
//     worst an ignorable temp file, never a half-visible entry.
//   - Lookups from a snapshot: Open reads the directory once, through a
//     handle the store keeps until Close, and records the entries
//     present. A Get outside that set is a miss with no system call; an
//     entry another process writes after Open is seen from the next Open
//     on, and until then its cell is re-simulated and rewritten with the
//     same bytes.
//   - Per-entry integrity: entries are wrapped in a portsim-cell/v2
//     envelope carrying a SHA-256 checksum of the body; any mismatch —
//     torn write, bit rot, truncation — is detected on read.
//   - Quarantine, not crash: a corrupt entry is renamed to *.corrupt,
//     recorded as a structured StoreError and reported as a miss, so the
//     campaign re-simulates the one cell instead of failing.
//
// Both codecs are written by hand over internal/jsonwire. An entry encodes
// into one buffer, byte for byte as encoding/json wrote it, so a store
// written before keeps its bytes and its file names, and decodes in one
// pass without reflection. A Get hit allocates nine objects: the path, the
// file system's five (the open file's two, its name, its size and its
// bytes), and the entry with its two labels; the key's strings are the
// caller's, and the payload stays in the file's bytes. A miss allocates
// nothing. A Put allocates ten at any store path length: the path, its
// temp name and the encoded entry, and the file system's seven for the
// temp file (its name and the open file's two) and the rename (two names
// and os.Rename's lstat of the entry, two, three with the error of an
// entry not yet there); the directory it fsyncs is the handle Open keeps.
// An entry's file name is its key's ID, a SHA-256 of the key's JSON,
// which Key.ID appends on the stack, so the ID is all it allocates; a
// caller that holds the ID passes it to GetID, PutID and Quarantine, so a
// runner cell derives its file name once for all three.
// The experiments layer decodes the payload's counter names into the stats
// vocabulary's own strings instead of a copy per name.
package cellstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"portsim/internal/jsonwire"
)

// Schema identifies the on-disk envelope format. Bump the suffix on any
// incompatible change; unknown schemas quarantine on read. v2 keys cells
// by content instead of by display name: no v2 key addresses a v1 entry,
// so a v1 store's cells re-simulate on first use.
const Schema = "portsim-cell/v2"

// Key is the content-addressed identity of one experiment cell: what the
// simulator actually runs, and nothing it does not. The experiments layer
// uses the same Key for its in-process memo and its trace-arena registry
// (Stream), so a cell is the same cell at every level of lookup. Two cells
// that differ only in display names share a Key and are simulated once.
type Key struct {
	// Config fingerprints the machine configuration with its display name
	// cleared (the HashJSON of its JSON).
	Config string `json:"config,omitempty"`
	// Stream fingerprints the instruction stream: the workload profile
	// with its name and description cleared, plus the process count and
	// quantum of a multiprogrammed stream.
	Stream string `json:"stream"`
	// Seed and Insts pin the generator seed and instruction budget.
	Seed  int64  `json:"seed"`
	Insts uint64 `json:"insts"`
	// Fault is the fault descriptor (experiments -inject syntax) when the
	// cell was deliberately poisoned, empty for clean cells.
	Fault string `json:"fault,omitempty"`
}

// HashJSON fingerprints a JSON document for a Key component: the first
// 16 bytes of its SHA-256, in hex. A component's document is a value as
// json.Marshal writes it; callers append theirs by hand, byte for byte as
// Marshal would, so the hash is all hashing allocates.
func HashJSON(doc []byte) string {
	sum := sha256.Sum256(doc)
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:])
}

// ID returns the entry's content address, the HashJSON of the key. It is
// the base of the entry's filename. The key's JSON is appended by hand,
// byte for byte as json.Marshal writes it, so hashing it allocates only
// the ID.
func (k Key) ID() string {
	var buf [192]byte
	return HashJSON(k.appendJSON(buf[:0]))
}

// appendJSON appends the key's JSON, as json.Marshal writes it.
func (k *Key) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	if k.Config != "" {
		dst = jsonwire.AppendString(append(dst, `"config":`...), k.Config)
		dst = append(dst, ',')
	}
	dst = jsonwire.AppendString(append(dst, `"stream":`...), k.Stream)
	dst = strconv.AppendInt(append(dst, `,"seed":`...), k.Seed, 10)
	dst = strconv.AppendUint(append(dst, `,"insts":`...), k.Insts, 10)
	if k.Fault != "" {
		dst = jsonwire.AppendString(append(dst, `,"fault":`...), k.Fault)
	}
	return append(dst, '}')
}

// readJSON reads the key's JSON members into k, as json.Unmarshal would.
// A string that equals the same field of want takes want's string, so a
// Get of the key it asked for copies none of the key's strings.
func (k *Key) readJSON(r *jsonwire.Reader, want *Key) {
	if !r.Object() {
		return
	}
	for name, ok := r.Member(keyFields); ok; name, ok = r.Member(keyFields) {
		switch name {
		case "config":
			readString(r, &k.Config, want.Config)
		case "stream":
			readString(r, &k.Stream, want.Stream)
		case "seed":
			r.Int(&k.Seed)
		case "insts":
			r.Uint(&k.Insts)
		case "fault":
			readString(r, &k.Fault, want.Fault)
		default:
			r.Skip()
		}
	}
}

// readString reads a string into *p as Reader.String does, but takes like
// instead of a copy when the two are equal.
func readString(r *jsonwire.Reader, p *string, like string) {
	if text, ok := r.Text(); ok {
		if string(text) == like {
			*p = like
		} else {
			*p = string(text)
		}
	}
}

// The JSON field names of Key, Failure, Entry and the envelope, in field
// order, for jsonwire.Reader.Member.
var (
	keyFields      = []string{"config", "stream", "seed", "insts", "fault"}
	failureFields  = []string{"message", "panicked", "stack"}
	entryFields    = []string{"key", "machine", "workload", "result", "failure"}
	envelopeFields = []string{"schema", "checksum", "entry"}
)

// Failure is the stored form of a deterministic cell failure. The
// simulator is deterministic, so a cell that died once dies identically
// on every retry; storing the failure means a poisoned cell fails exactly
// once across runs instead of once per run.
type Failure struct {
	// Message is the underlying error text, verbatim.
	Message string `json:"message"`
	// Panicked marks failures born from a contained panic (the
	// experiments layer maps this back onto its ErrCellPanic sentinel).
	Panicked bool `json:"panicked,omitempty"`
	// Stack is the contained panic's stack trace from the original run,
	// kept for forensics; empty for ordinary simulation errors.
	Stack string `json:"stack,omitempty"`
}

// Entry is one stored cell: its identity plus exactly one of Result
// (opaque payload owned by the experiments layer) or Failure.
type Entry struct {
	Key Key `json:"key"`
	// Machine and Workload label the cell that wrote the entry, so entries
	// stay self-describing under Scan. They are not identity: a later cell
	// under other names but with the same Key restores this entry.
	Machine  string `json:"machine,omitempty"`
	Workload string `json:"workload,omitempty"`
	// Result is the successful cell's encoded result; nil for failures.
	Result json.RawMessage `json:"result,omitempty"`
	// Failure is the failed cell's stored error; nil for results.
	Failure *Failure `json:"failure,omitempty"`
}

// Validate checks the entry's structural invariant.
func (e *Entry) Validate() error {
	if e.Key.Config == "" || e.Key.Stream == "" {
		return fmt.Errorf("cellstore: entry missing config or stream hash")
	}
	if e.Key.Insts == 0 {
		return fmt.Errorf("cellstore: entry has a zero instruction budget")
	}
	hasRes := len(e.Result) > 0
	hasFail := e.Failure != nil
	if hasRes == hasFail {
		return fmt.Errorf("cellstore: entry must carry exactly one of result or failure")
	}
	if hasFail && e.Failure.Message == "" {
		return fmt.Errorf("cellstore: stored failure has no message")
	}
	return nil
}

// An entry file is the envelope {"schema":...,"checksum":...,"entry":...}
// on one line: the schema, the SHA-256 of the entry body as "sha256:" and
// 64 hex digits, and the body, the entry's JSON, whose exact bytes the
// checksum covers. EncodeEntry writes the envelope's fixed text around
// the body. envelopeSize bounds the rest of a file's length, beyond its
// strings and its payload, when nothing needs escaping: the envelope's
// and the body's field names and punctuation, the checksum and two
// 20-digit numbers, 313 bytes at most.
const (
	envelopePrefix = `{"schema":"` + Schema + `","checksum":"sha256:`
	envelopeBody   = `","entry":`
	envelopeSize   = 320
)

// appendChecksum appends the envelope checksum form of a body's SHA-256.
func appendChecksum(dst []byte, sum *[sha256.Size]byte) []byte {
	return hex.AppendEncode(append(dst, "sha256:"...), sum[:])
}

// appendJSON appends the entry's JSON, as json.Marshal writes it.
func (e *Entry) appendJSON(dst []byte) ([]byte, error) {
	dst = e.Key.appendJSON(append(dst, `{"key":`...))
	if e.Machine != "" {
		dst = jsonwire.AppendString(append(dst, `,"machine":`...), e.Machine)
	}
	if e.Workload != "" {
		dst = jsonwire.AppendString(append(dst, `,"workload":`...), e.Workload)
	}
	if len(e.Result) > 0 {
		var err error
		if dst, err = jsonwire.AppendCompact(append(dst, `,"result":`...), e.Result); err != nil {
			return nil, err
		}
	}
	if f := e.Failure; f != nil {
		dst = jsonwire.AppendString(append(dst, `,"failure":{"message":`...), f.Message)
		if f.Panicked {
			dst = append(dst, `,"panicked":true`...)
		}
		if f.Stack != "" {
			dst = jsonwire.AppendString(append(dst, `,"stack":`...), f.Stack)
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// readJSON reads an entry's JSON into e, as json.Unmarshal would, its key
// as Key.readJSON reads it.
func (e *Entry) readJSON(r *jsonwire.Reader, want *Key) {
	if !r.Object() {
		return
	}
	for name, ok := r.Member(entryFields); ok; name, ok = r.Member(entryFields) {
		switch name {
		case "key":
			e.Key.readJSON(r, want)
		case "machine":
			r.String(&e.Machine)
		case "workload":
			r.String(&e.Workload)
		case "result":
			// A json.RawMessage takes the value's bytes, null included.
			// They stay where they lie in the input, capped there so an
			// append to Result cannot write over what follows them.
			if raw := r.Raw(); raw != nil {
				e.Result = raw[:len(raw):len(raw)]
			}
		case "failure":
			if r.Null() {
				e.Failure = nil
				continue
			}
			if e.Failure == nil {
				e.Failure = new(Failure)
			}
			e.Failure.readJSON(r)
		default:
			r.Skip()
		}
	}
}

// readJSON reads a failure's JSON into f, as json.Unmarshal would.
func (f *Failure) readJSON(r *jsonwire.Reader) {
	if !r.Object() {
		return
	}
	for name, ok := r.Member(failureFields); ok; name, ok = r.Member(failureFields) {
		switch name {
		case "message":
			r.String(&f.Message)
		case "panicked":
			r.Bool(&f.Panicked)
		case "stack":
			r.String(&f.Stack)
		default:
			r.Skip()
		}
	}
}

// EncodeEntry serialises an entry into envelope bytes ready for disk. The
// output is deterministic: the same entry always encodes to the same
// bytes, so a re-Put of an identical cell is byte-identical — the
// content-addressing invariant. The bytes are those json.Marshal writes
// for the envelope. EncodeEntry appends the envelope, the body and the
// result payload into one buffer, sized for them up front, and writes the
// body's checksum into its place in the envelope last.
func EncodeEntry(e *Entry) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	size := envelopeSize + len(e.Key.Config) + len(e.Key.Stream) + len(e.Key.Fault) +
		len(e.Machine) + len(e.Workload) + len(e.Result)
	if f := e.Failure; f != nil {
		size += len(f.Message) + len(f.Stack)
	}
	dst := append(make([]byte, 0, size), envelopePrefix...)
	sumAt := len(dst)
	// Room for the checksum's hex, written last. A stack array, because
	// under the race detector append(dst, make(...)...) allocates.
	var room [2 * sha256.Size]byte
	dst = append(dst, room[:]...)
	dst = append(dst, envelopeBody...)
	bodyAt := len(dst)
	dst, err := e.appendJSON(dst)
	if err != nil {
		return nil, fmt.Errorf("cellstore: encoding entry: %w", err)
	}
	sum := sha256.Sum256(dst[bodyAt:])
	hex.Encode(dst[sumAt:], sum[:])
	return append(dst, "}\n"...), nil
}

// DecodeEntry parses and verifies envelope bytes: schema, checksum, entry
// structure. Every corruption shape — truncation, bit flips, wrong
// schema, checksum mismatch, structural nonsense — comes back as an
// error, never a panic; the store turns that error into a quarantine.
//
// It reads the envelope in one pass, as json.Unmarshal would read it,
// with the body decoded straight into the returned Entry where it lies
// in data and summed there. The entry's strings are copied out of data;
// its Result is the payload's bytes in data itself, so the caller must
// leave data as it is while it holds the entry.
func DecodeEntry(data []byte) (*Entry, error) { return decodeEntry(data, &Key{}) }

// decodeEntry is DecodeEntry for a reader that expects the key want: a
// key string equal to want's is want's string, not a copy.
func decodeEntry(data []byte, want *Key) (*Entry, error) {
	var schema, checksum, body []byte
	e := new(Entry)
	r := jsonwire.NewReader(data)
	if r.Object() {
		for name, ok := r.Member(envelopeFields); ok; name, ok = r.Member(envelopeFields) {
			switch name {
			case "schema":
				if text, ok := r.Text(); ok {
					schema = text
				}
			case "checksum":
				if text, ok := r.Text(); ok {
					checksum = text
				}
			case "entry":
				*e = Entry{}
				start := r.Start()
				e.readJSON(&r, want)
				body = r.Span(start)
			default:
				r.Skip()
			}
		}
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("cellstore: envelope not parseable: %w", err)
	}
	if string(schema) != Schema {
		return nil, fmt.Errorf("cellstore: envelope schema %q, want %q", schema, Schema)
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("cellstore: envelope has no entry body")
	}
	sum := sha256.Sum256(body)
	var buf [len("sha256:") + 2*sha256.Size]byte
	if got := appendChecksum(buf[:0], &sum); string(got) != string(checksum) {
		return nil, fmt.Errorf("cellstore: checksum mismatch: envelope says %s, body is %s", checksum, string(got))
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}
