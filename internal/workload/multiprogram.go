package workload

import (
	"fmt"
	"math/rand"

	"portsim/internal/isa"
	"portsim/internal/trace"
)

// KernelCodeBase is the lowest kernel address; everything below it belongs
// to user space. Exported for consumers that must distinguish the shared
// kernel from per-process user ranges (the multiprogramming wrapper, trace
// analytics).
const KernelCodeBase uint64 = kernelCodeBase

// processStride separates the address spaces of multiprogrammed processes.
// 8 GB apart: far beyond any single profile's footprint, so processes never
// alias in caches or TLBs.
const processStride uint64 = 1 << 33

// SeedStride separates the per-process generator seeds of a multiprogrammed
// workload: process i runs with seed + i*SeedStride. Exported so the arena
// registry in internal/experiments can materialise the per-process traces
// NewMultiprogramReplay interleaves.
const SeedStride int64 = 7919

// MinQuantum is the shortest mean quantum a multiprogram accepts.
const MinQuantum = 100

// Multiprogram interleaves N independent instances of a profile, switching
// between them on an exponentially distributed quantum — the
// multiprogrammed behaviour of the paper's pmake-style workloads, where
// context switches cold-start the caches and TLBs.
//
// Each process runs the same profile with its own seed and an address-space
// offset applied to all user-mode PCs, data addresses and control targets;
// the kernel (code and data) is shared, as in a real OS. A context switch
// is marked by an injected serialising syscall, so the stream is NOT a
// single coherent control-flow walk across switch boundaries — exactly like
// a trace that includes interrupts.
type Multiprogram struct {
	procs   []trace.Stream
	offsets []uint64
	rng     *rand.Rand

	current     int
	quantumMean int
	left        int

	// switchPending injects the context-switch marker before the next
	// process's first instruction.
	switchPending bool
}

// NewMultiprogramReplay builds a multiprogrammed stream of len(procs)
// instances of a profile, switching every quantumMean instructions on
// average, over pre-materialised per-process traces. Cursor i must replay
// the dynamic trace of New(prof, seed+int64(i)*SeedStride) — the arena
// registry in internal/experiments guarantees this — and the quantum
// schedule is drawn from seed, so the interleave is the one live
// generators would give until a cursor runs out. Cursors are finite: the
// replay ends (NextBatch returns short) when the current process's trace
// is exhausted. Cursor i must therefore hold at least ProcessDemand's
// count for process i over the instructions the caller will consume.
func NewMultiprogramReplay(procs []*trace.Cursor, quantumMean int, seed int64) (*Multiprogram, error) {
	return newMultiprogram(len(procs), quantumMean, seed, func(i int) (trace.Stream, error) {
		return procs[i], nil
	})
}

// ProcessDemand returns how many instructions each process supplies to the
// first n instructions of a multiprogram of processes at quantumMean and
// seed, for any profile: the schedule depends only on those arguments,
// and the context-switch markers it injects come from no process. It runs
// Multiprogram.NextBatch itself over counting stand-ins for the
// processes, so the count cannot drift from the schedule a replay follows.
func ProcessDemand(processes, quantumMean int, seed int64, n uint64) ([]uint64, error) {
	demand := make([]uint64, max(processes, 0))
	m, err := newMultiprogram(processes, quantumMean, seed, func(i int) (trace.Stream, error) {
		return (*pullCounter)(&demand[i]), nil
	})
	if err != nil {
		return nil, err
	}
	var buf [128]isa.Inst
	for read := uint64(0); read < n; {
		read += uint64(m.NextBatch(buf[:min(uint64(len(buf)), n-read)]))
	}
	return demand, nil
}

// pullCounter is ProcessDemand's stand-in for a process: an endless stream
// that counts the instructions pulled from it into its demand slot. It
// leaves dst as it finds it, since ProcessDemand reads no instruction.
type pullCounter uint64

func (c *pullCounter) NextBatch(dst []isa.Inst) int {
	*c += pullCounter(len(dst))
	return len(dst)
}

// newMultiprogram validates the schedule's parameters, then builds the
// interleaver over proc(i) for each of the processes.
func newMultiprogram(processes, quantumMean int, seed int64, proc func(i int) (trace.Stream, error)) (*Multiprogram, error) {
	if processes < 1 {
		return nil, fmt.Errorf("workload: need at least one process")
	}
	if quantumMean < MinQuantum {
		return nil, fmt.Errorf("workload: quantum %d too short to be meaningful", quantumMean)
	}
	m := &Multiprogram{
		procs:       make([]trace.Stream, 0, processes),
		offsets:     make([]uint64, 0, processes),
		rng:         rand.New(rand.NewSource(seed)),
		quantumMean: quantumMean,
	}
	for i := 0; i < processes; i++ {
		p, err := proc(i)
		if err != nil {
			return nil, err
		}
		m.procs = append(m.procs, p)
		m.offsets = append(m.offsets, uint64(i)*processStride)
	}
	m.left = m.drawQuantum()
	return m, nil
}

func (m *Multiprogram) drawQuantum() int {
	// Geometric with the configured mean, at least 10 instructions.
	n := 10
	for m.rng.Float64() > 1.0/float64(m.quantumMean) {
		n++
		if n >= 20*m.quantumMean {
			break
		}
	}
	return n
}

// NextBatch implements trace.Stream. Each quantum's run is read from its
// process in one batch and relocated in place; a switch injects its
// marker between runs. A short count only happens on replayed (finite)
// process streams; live generators never end.
func (m *Multiprogram) NextBatch(dst []isa.Inst) int {
	n := 0
	for n < len(dst) {
		if m.switchPending {
			// The context-switch marker: a serialising kernel entry at
			// the outgoing process's last PC. The core drains its
			// pipeline on it, charging the switch's direct cost; the
			// indirect cost (cold caches, cold TLB) follows from the
			// address-space jump.
			m.switchPending = false
			dst[n] = isa.Inst{
				PC:     m.lastUserPC(),
				Class:  isa.Syscall,
				Target: kernelCodeBase,
				Kernel: false,
			}
			n++
			continue
		}
		run := len(dst) - n
		if len(m.procs) > 1 {
			if m.left <= 0 {
				m.current = (m.current + 1) % len(m.procs)
				m.left = m.drawQuantum()
				m.switchPending = true
				continue
			}
			run = min(run, m.left)
		}
		got := m.procs[m.current].NextBatch(dst[n : n+run])
		off := m.offsets[m.current]
		for i := n; i < n+got; i++ {
			m.relocate(&dst[i], off)
		}
		n += got
		m.left -= got
		if got < run {
			break
		}
	}
	return n
}

// lastUserPC gives a stable PC in the current process's code range for the
// injected switch marker.
func (m *Multiprogram) lastUserPC() uint64 {
	return userCodeBase + m.offsets[m.current]
}

// relocate applies the process's address-space offset to user-mode
// addresses, leaving the shared kernel ranges untouched. Kernel-mode
// control transfers back into user space (episode exits) are relocated so
// the process resumes in its own range.
func (m *Multiprogram) relocate(in *isa.Inst, off uint64) {
	if off == 0 {
		return
	}
	if !in.Kernel {
		in.PC += off
		if in.Class.IsMem() {
			in.Addr += off
		}
		if in.Class.IsCtrl() && in.Class != isa.Syscall {
			in.Target += off
		}
		return
	}
	// Kernel mode: code and data are shared, but a return whose target
	// lies in user space goes back to this process's range.
	if in.Class.IsCtrl() && in.Target < KernelCodeBase {
		in.Target += off
	}
}
