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
// does own is durability and integrity:
//
//   - Crash-safe writes: every Put lands via temp file + fsync + atomic
//     rename (+ directory fsync), so a process killed mid-Put leaves at
//     worst an ignorable temp file, never a half-visible entry.
//   - Per-entry integrity: entries are wrapped in a portsim-cell/v2
//     envelope carrying a SHA-256 checksum of the body; any mismatch —
//     torn write, bit rot, truncation — is detected on read.
//   - Quarantine, not crash: a corrupt entry is renamed to *.corrupt,
//     recorded as a structured StoreError and reported as a miss, so the
//     campaign re-simulates the one cell instead of failing.
//
// A restore allocates a few dozen objects, none per counter of the stored
// result. An entry's file name is its key's ID, a SHA-256 of the key's
// JSON; a caller that holds the ID passes it to GetID, PutID and
// Quarantine, so a runner cell derives its file name once for all three.
// DecodeEntry sums and decodes the envelope body where it lies in the
// file's bytes and copies only the payload out of it, and the experiments
// layer decodes the payload's counter names into the stats vocabulary's
// own strings instead of a copy per name.
package cellstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
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
	// cleared (its ContentHash).
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

// ContentHash fingerprints v's canonical JSON for a Key component:
// SHA-256, first 16 bytes, hex.
func ContentHash(v any) (string, error) {
	doc, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(doc)
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:]), nil
}

// ID returns the entry's content address, the ContentHash of the key. It
// is the base of the entry's filename.
func (k Key) ID() string {
	id, err := ContentHash(k)
	if err != nil {
		// Key is a struct of plain strings and integers; Marshal cannot
		// fail on it. Guard anyway so a future field type keeps the
		// invariant visible.
		panic(fmt.Sprintf("cellstore: key not marshalable: %v", err))
	}
	return id
}

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

// envelope is the on-disk wrapper: schema, checksum, body. The body is
// kept as raw bytes so the checksum covers the exact serialised form.
type envelope struct {
	Schema   string          `json:"schema"`
	Checksum string          `json:"checksum"`
	Entry    json.RawMessage `json:"entry"`
}

// bodyChecksum computes the envelope checksum of an entry body.
func bodyChecksum(body []byte) string {
	sum := sha256.Sum256(body)
	return string(appendChecksum(nil, &sum))
}

// appendChecksum appends the envelope checksum form of a body's SHA-256.
func appendChecksum(dst []byte, sum *[sha256.Size]byte) []byte {
	return hex.AppendEncode(append(dst, "sha256:"...), sum[:])
}

// entryBody decodes an envelope's entry body where it lies in the
// envelope's bytes. encoding/json hands UnmarshalJSON the bytes a
// json.RawMessage would copy, so the body is summed and decoded in place,
// and only the entry's Result is copied out of it. The decode error waits
// in err until DecodeEntry has checked the schema and the checksum.
type entryBody struct {
	size int
	sum  [sha256.Size]byte
	e    Entry
	err  error
}

func (b *entryBody) UnmarshalJSON(data []byte) error {
	*b = entryBody{size: len(data), sum: sha256.Sum256(data)}
	b.err = json.Unmarshal(data, &b.e)
	return nil
}

// EncodeEntry serialises an entry into envelope bytes ready for disk. The
// output is deterministic: the same entry always encodes to the same
// bytes, so a re-Put of an identical cell is byte-identical — the
// content-addressing invariant.
func EncodeEntry(e *Entry) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("cellstore: encoding entry: %w", err)
	}
	// The envelope is marshalled compactly: MarshalIndent would re-indent
	// the embedded raw body, and the checksum covers the body's exact
	// bytes as stored.
	env := envelope{Schema: Schema, Checksum: bodyChecksum(body), Entry: body}
	data, err := json.Marshal(&env)
	if err != nil {
		return nil, fmt.Errorf("cellstore: encoding envelope: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeEntry parses and verifies envelope bytes: schema, checksum, entry
// structure. Every corruption shape — truncation, bit flips, wrong
// schema, checksum mismatch, structural nonsense — comes back as an
// error, never a panic; the store turns that error into a quarantine.
func DecodeEntry(data []byte) (*Entry, error) {
	var env struct {
		Schema   string    `json:"schema"`
		Checksum string    `json:"checksum"`
		Entry    entryBody `json:"entry"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("cellstore: envelope not parseable: %w", err)
	}
	if env.Schema != Schema {
		return nil, fmt.Errorf("cellstore: envelope schema %q, want %q", env.Schema, Schema)
	}
	body := &env.Entry
	if body.size == 0 {
		return nil, fmt.Errorf("cellstore: envelope has no entry body")
	}
	var buf [len("sha256:") + 2*sha256.Size]byte
	if got := appendChecksum(buf[:0], &body.sum); string(got) != env.Checksum {
		return nil, fmt.Errorf("cellstore: checksum mismatch: envelope says %s, body is %s", env.Checksum, string(got))
	}
	if body.err != nil {
		return nil, fmt.Errorf("cellstore: entry body not parseable: %w", body.err)
	}
	if err := body.e.Validate(); err != nil {
		return nil, err
	}
	return &body.e, nil
}
