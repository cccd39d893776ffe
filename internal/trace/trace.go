// Package trace defines the dynamic instruction stream abstraction that
// connects workload generators to the timing simulator, plus a compact
// binary on-disk format so generated traces can be captured once and
// replayed (the cmd/tracegen tool).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"portsim/internal/isa"
)

// Stream produces a dynamic instruction stream. Implementations must be
// deterministic for a given construction (same seed, same stream).
type Stream interface {
	// Next fills in with the next dynamic instruction and returns true,
	// or returns false when the stream is exhausted. The pointed-to value
	// is owned by the caller between calls.
	Next(in *isa.Inst) bool
}

// Batcher is an optional extension of Stream: implementations can fill a
// whole slice of instructions in one call, so a consumer pays one dynamic
// dispatch per chunk instead of one per instruction. NextBatch fills a
// prefix of dst and returns its length; a count shorter than len(dst)
// means the stream is exhausted. The filled prefix must be exactly the
// sequence the same number of Next calls would have produced — batching is
// a calling convention, never a semantic change.
type Batcher interface {
	Stream
	NextBatch(dst []isa.Inst) int
}

// Batched returns s as a Batcher: s itself when it already batches,
// otherwise a wrapper whose NextBatch calls Next once per instruction, so
// every consumer reads every stream one way.
func Batched(s Stream) Batcher {
	if b, ok := s.(Batcher); ok {
		return b
	}
	return nextBatcher{s}
}

// nextBatcher adapts a Next-only stream to Batcher.
type nextBatcher struct{ Stream }

// NextBatch implements Batcher.
func (n nextBatcher) NextBatch(dst []isa.Inst) int {
	for i := range dst {
		if !n.Next(&dst[i]) {
			return i
		}
	}
	return len(dst)
}

// SliceStream replays a fixed instruction slice; used heavily in tests to
// drive the core with hand-built programs.
type SliceStream struct {
	insts []isa.Inst
	pos   int
}

// NewSliceStream returns a stream over the given instructions.
func NewSliceStream(insts []isa.Inst) *SliceStream {
	return &SliceStream{insts: insts}
}

// Next implements Stream.
func (s *SliceStream) Next(in *isa.Inst) bool {
	if s.pos >= len(s.insts) {
		return false
	}
	*in = s.insts[s.pos]
	s.pos++
	return true
}

// Limit wraps a stream and truncates it after n instructions.
type Limit struct {
	inner Stream
	left  uint64
}

// NewLimit returns a stream yielding at most n instructions of inner.
func NewLimit(inner Stream, n uint64) *Limit {
	return &Limit{inner: inner, left: n}
}

// Next implements Stream.
func (l *Limit) Next(in *isa.Inst) bool {
	if l.left == 0 {
		return false
	}
	if !l.inner.Next(in) {
		l.left = 0
		return false
	}
	l.left--
	return true
}

// Binary format
//
// A trace file is the magic string, a format version byte, then a sequence
// of records. Each record is:
//
//	flags   byte   (class in low 4 bits would not fit; layout below)
//	class   byte
//	dest, src1, src2  byte each
//	size    byte   (memory ops only)
//	taken/kernel packed into flags
//	pc, addr, target  uvarint deltas/absolutes
//
// PCs are delta-encoded against the previous record's fall-through to keep
// sequential code small.

const magic = "PORTSIMTRC"
const version = 1

// Flag bits in the record header.
const (
	flagTaken  = 1 << 0
	flagKernel = 1 << 1
	flagMem    = 1 << 2
	flagCtrl   = 1 << 3
)

// Writer serialises instructions to a binary trace.
type Writer struct {
	w      *bufio.Writer
	lastPC uint64
	count  uint64
	opened bool
}

// NewWriter returns a Writer targeting w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (w *Writer) writeHeader() error {
	if _, err := w.w.WriteString(magic); err != nil {
		return err
	}
	return w.w.WriteByte(version)
}

// Write appends one instruction record.
func (w *Writer) Write(in *isa.Inst) error {
	if err := in.Validate(); err != nil {
		return fmt.Errorf("trace: refusing to write invalid instruction: %w", err)
	}
	if !w.opened {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.opened = true
	}
	var flags byte
	if in.Taken {
		flags |= flagTaken
	}
	if in.Kernel {
		flags |= flagKernel
	}
	if in.Class.IsMem() {
		flags |= flagMem
	}
	if in.Class.IsCtrl() {
		flags |= flagCtrl
	}
	var buf [2 + 3 + binary.MaxVarintLen64*3 + 1]byte
	n := 0
	buf[n] = flags
	n++
	buf[n] = byte(in.Class)
	n++
	buf[n] = byte(in.Dest)
	n++
	buf[n] = byte(in.Src1)
	n++
	buf[n] = byte(in.Src2)
	n++
	// PC as zig-zag delta from the previous instruction's fall-through.
	delta := int64(in.PC) - int64(w.lastPC)
	n += binary.PutVarint(buf[n:], delta)
	w.lastPC = in.FallThrough()
	if in.Class.IsMem() {
		buf[n] = in.Size
		n++
		n += binary.PutUvarint(buf[n:], in.Addr)
	}
	if in.Class.IsCtrl() {
		n += binary.PutUvarint(buf[n:], in.Target)
	}
	if _, err := w.w.Write(buf[:n]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.count }

// Flush writes buffered data through. Must be called before closing the
// underlying file.
func (w *Writer) Flush() error {
	if !w.opened {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.opened = true
	}
	return w.w.Flush()
}

// Reader deserialises a binary trace; it implements Stream.
type Reader struct {
	r      *bufio.Reader
	lastPC uint64
	opened bool
	err    error
}

// NewReader returns a Reader over r. Header validation happens on first
// Next; Err reports any format error afterwards.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

func (r *Reader) readHeader() error {
	got := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(r.r, got); err != nil {
		return fmt.Errorf("trace: short header: %w", err)
	}
	if string(got[:len(magic)]) != magic {
		return errors.New("trace: bad magic; not a portsim trace")
	}
	if got[len(magic)] != version {
		return fmt.Errorf("trace: unsupported version %d", got[len(magic)])
	}
	return nil
}

// Next implements Stream. On malformed input it stops the stream and
// records the error, retrievable via Err.
//
//portlint:coldpath file-trace decode is cmd/tracegen tooling, I/O-bound by construction; experiment campaigns stream from generators or arenas, never through a Reader
func (r *Reader) Next(in *isa.Inst) bool {
	if r.err != nil {
		return false
	}
	if !r.opened {
		if err := r.readHeader(); err != nil {
			r.err = err
			return false
		}
		r.opened = true
	}
	flags, err := r.r.ReadByte()
	if err != nil {
		if err != io.EOF {
			r.err = err
		}
		return false
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		r.err = fmt.Errorf("trace: truncated record: %w", err)
		return false
	}
	*in = isa.Inst{
		Class:  isa.Class(hdr[0]),
		Dest:   isa.Reg(hdr[1]),
		Src1:   isa.Reg(hdr[2]),
		Src2:   isa.Reg(hdr[3]),
		Taken:  flags&flagTaken != 0,
		Kernel: flags&flagKernel != 0,
	}
	delta, err := binary.ReadVarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("trace: truncated pc: %w", err)
		return false
	}
	in.PC = uint64(int64(r.lastPC) + delta)
	r.lastPC = in.FallThrough()
	if flags&flagMem != 0 {
		size, err := r.r.ReadByte()
		if err != nil {
			r.err = fmt.Errorf("trace: truncated size: %w", err)
			return false
		}
		in.Size = size
		if in.Addr, err = binary.ReadUvarint(r.r); err != nil {
			r.err = fmt.Errorf("trace: truncated addr: %w", err)
			return false
		}
	}
	if flags&flagCtrl != 0 {
		if in.Target, err = binary.ReadUvarint(r.r); err != nil {
			r.err = fmt.Errorf("trace: truncated target: %w", err)
			return false
		}
	}
	if err := in.Validate(); err != nil {
		r.err = err
		return false
	}
	return true
}

// Err returns the first error encountered while reading, or nil at clean
// end of stream.
func (r *Reader) Err() error { return r.err }
