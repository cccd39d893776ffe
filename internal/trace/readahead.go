package trace

import (
	"sync/atomic"

	"portsim/internal/isa"
)

// The read-ahead ring: readAheadBlocks blocks of readAheadBlock
// instructions, 512 KB in all.
const (
	readAheadBlocks = 4
	readAheadBlock  = 4096
)

// ReadAhead reads a Batcher on a producer goroutine, ahead of its
// consumer, through a fixed ring of instruction blocks. The consumer's
// Next and NextBatch copy the blocks out in order and yield exactly the
// sequence the source would have, so a ReadAhead over a source whose
// output does not depend on when it is called changes nothing its
// consumer observes.
//
// NewReadAhead builds a read-ahead that reads nothing yet. Start, called
// once and before the first read, begins reading at most a given number
// of instructions; Stop, which must follow Start, ends the producer and
// waits for it to exit. Start allocates the ring, so an unstarted
// ReadAhead costs a few words. The consumer side is for one goroutine.
//
// A panic in the source happens on the producer goroutine, where no
// caller can recover it. Read-ahead suits sources that do not panic,
// such as the built-in workload generators.
type ReadAhead struct {
	src  Batcher
	ring []isa.Inst

	// filled carries the length of each filled block, in ring order, and
	// the producer closes it on exit. Its capacity is two blocks short of
	// the ring: one for the block the producer fills and one for the
	// block the consumer copies from. Receiving the next length therefore
	// hands the previous block back, and the producer never writes a
	// block the consumer still reads.
	filled  chan int
	stopped atomic.Bool

	// The consumer's place: the next block, and the unread part of the
	// current one as ring indices.
	blk      int
	pos, end int
}

// NewReadAhead returns a read-ahead over src that reads nothing until
// Start.
func NewReadAhead(src Batcher) *ReadAhead { return &ReadAhead{src: src} }

// Start begins reading at most limit instructions of the source on a new
// goroutine.
func (r *ReadAhead) Start(limit uint64) {
	r.ring = make([]isa.Inst, readAheadBlocks*readAheadBlock)
	r.filled = make(chan int, readAheadBlocks-2)
	go r.produce(limit)
}

// produce fills the ring block by block until limit instructions, the
// end of the source or Stop.
func (r *ReadAhead) produce(limit uint64) {
	defer close(r.filled)
	for sent, blk := uint64(0), 0; sent < limit && !r.stopped.Load(); blk++ {
		size := uint64(readAheadBlock)
		if limit-sent < size {
			size = limit - sent
		}
		base := blk % readAheadBlocks * readAheadBlock
		got := r.src.NextBatch(r.ring[base : base+int(size)])
		r.filled <- got
		if uint64(got) < size {
			return
		}
		sent += size
	}
}

// Stop ends the producer and waits for it to exit. It returns after at
// most the block the producer is filling, and it is safe to call more
// than once. The consumer must not read after Stop.
func (r *ReadAhead) Stop() {
	r.stopped.Store(true)
	for range r.filled {
	}
}

// next makes the next filled block current. It reports false once the
// producer has exited and every block has been read.
//
//portlint:hotpath
func (r *ReadAhead) next() bool {
	n, ok := <-r.filled
	if !ok {
		return false
	}
	r.pos = r.blk * readAheadBlock
	r.end = r.pos + n
	r.blk++
	if r.blk == readAheadBlocks {
		r.blk = 0
	}
	return true
}

// Next implements Stream.
//
//portlint:hotpath
func (r *ReadAhead) Next(in *isa.Inst) bool {
	for r.pos == r.end {
		if !r.next() {
			return false
		}
	}
	*in = r.ring[r.pos]
	r.pos++
	return true
}

// NextBatch implements Batcher: it fills dst unless the source ends
// first.
//
//portlint:hotpath
func (r *ReadAhead) NextBatch(dst []isa.Inst) int {
	n := 0
	for n < len(dst) {
		if r.pos == r.end {
			if !r.next() {
				break
			}
			continue
		}
		k := copy(dst[n:], r.ring[r.pos:r.end])
		n += k
		r.pos += k
	}
	return n
}
