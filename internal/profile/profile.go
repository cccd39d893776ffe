// Package profile computes reference-stream analytics from dynamic
// instruction streams: instruction mix, memory footprint, chunk adjacency,
// and cold-miss working-set curves. The
// workload generators are validated against these metrics (they are the
// statistics the cache-port study actually depends on), and cmd/tracegen
// exposes them for captured traces.
package profile

import (
	"fmt"
	"sort"
	"strings"

	"portsim/internal/isa"
	"portsim/internal/stats"
	"portsim/internal/trace"
)

// Analysis is the accumulated profile of a stream.
type Analysis struct {
	Insts  uint64
	Kernel uint64

	ClassCounts [isa.NumClasses]uint64

	// Memory behaviour.
	MemRefs     uint64
	Loads       uint64
	Stores      uint64
	BytesRead   uint64
	BytesStored uint64

	// Branch behaviour.
	Branches      uint64
	TakenBranches uint64

	// chunkAdjacent counts consecutive memory references landing in the
	// same aligned chunk of each tracked size.
	chunkSizes    []uint64
	chunkAdjacent []uint64

	// Footprint: distinct lines and pages touched.
	lines map[uint64]struct{}
	pages map[uint64]struct{}

	lastAddr  uint64
	haveLast  bool
	lineBytes uint64
	pageBytes uint64
}

// Options configure an analysis.
type Options struct {
	// LineBytes sets the footprint granularity (default 32).
	LineBytes uint64
	// PageBytes sets the page-footprint granularity (default 4096).
	PageBytes uint64
	// ChunkSizes are the alignment widths for adjacency tracking
	// (default 16, 32, 64) — the candidate wide-port widths.
	ChunkSizes []uint64
}

// New returns an empty analysis.
func New(opts Options) *Analysis {
	if opts.LineBytes == 0 {
		opts.LineBytes = 32
	}
	if opts.PageBytes == 0 {
		opts.PageBytes = 4096
	}
	if len(opts.ChunkSizes) == 0 {
		opts.ChunkSizes = []uint64{16, 32, 64}
	}
	return &Analysis{
		chunkSizes:    opts.ChunkSizes,
		chunkAdjacent: make([]uint64, len(opts.ChunkSizes)),
		lines:         make(map[uint64]struct{}),
		pages:         make(map[uint64]struct{}),
		lineBytes:     opts.LineBytes,
		pageBytes:     opts.PageBytes,
	}
}

// Observe accumulates one instruction.
func (a *Analysis) Observe(in *isa.Inst) {
	a.Insts++
	if in.Kernel {
		a.Kernel++
	}
	a.ClassCounts[in.Class]++
	switch in.Class {
	case isa.Branch:
		a.Branches++
		if in.Taken {
			a.TakenBranches++
		}
	case isa.Load, isa.Store:
		a.MemRefs++
		if in.Class == isa.Load {
			a.Loads++
			a.BytesRead += uint64(in.Size)
		} else {
			a.Stores++
			a.BytesStored += uint64(in.Size)
		}
		a.lines[in.Addr/a.lineBytes] = struct{}{}
		a.pages[in.Addr/a.pageBytes] = struct{}{}
		if a.haveLast {
			for i, cs := range a.chunkSizes {
				if in.Addr/cs == a.lastAddr/cs {
					a.chunkAdjacent[i]++
				}
			}
		}
		a.lastAddr = in.Addr
		a.haveLast = true
	}
}

// Consume drains a stream into the analysis, up to max instructions
// (0 = unbounded), returning the count observed.
func (a *Analysis) Consume(s trace.Stream, max uint64) uint64 {
	var buf [256]isa.Inst
	var n uint64
	for max == 0 || n < max {
		want := uint64(len(buf))
		if max != 0 {
			want = min(want, max-n)
		}
		got := s.NextBatch(buf[:want])
		for i := range buf[:got] {
			a.Observe(&buf[i])
		}
		n += uint64(got)
		if uint64(got) < want {
			break
		}
	}
	return n
}

// KernelFrac returns the kernel-mode instruction fraction.
func (a *Analysis) KernelFrac() float64 {
	if a.Insts == 0 {
		return 0
	}
	return float64(a.Kernel) / float64(a.Insts)
}

// MemFrac returns the memory-reference fraction of the stream.
func (a *Analysis) MemFrac() float64 {
	if a.Insts == 0 {
		return 0
	}
	return float64(a.MemRefs) / float64(a.Insts)
}

// TakenRate returns the conditional-branch taken rate.
func (a *Analysis) TakenRate() float64 {
	if a.Branches == 0 {
		return 0
	}
	return float64(a.TakenBranches) / float64(a.Branches)
}

// ChunkAdjacency returns the fraction of consecutive memory references
// sharing the aligned chunk of the given size — the statistic that predicts
// the load-all technique's hit rate. Returns 0 for untracked sizes.
func (a *Analysis) ChunkAdjacency(chunkBytes uint64) float64 {
	if a.MemRefs < 2 {
		return 0
	}
	for i, cs := range a.chunkSizes {
		if cs == chunkBytes {
			return float64(a.chunkAdjacent[i]) / float64(a.MemRefs-1)
		}
	}
	return 0
}

// FootprintLines returns the number of distinct cache lines touched.
func (a *Analysis) FootprintLines() int { return len(a.lines) }

// FootprintBytes returns the line-granular footprint in bytes.
func (a *Analysis) FootprintBytes() uint64 { return uint64(len(a.lines)) * a.lineBytes }

// FootprintPages returns the number of distinct pages touched — the DTLB's
// working set.
func (a *Analysis) FootprintPages() int { return len(a.pages) }

// Report renders the analysis as a plain-text table.
func (a *Analysis) Report(title string) string {
	var b strings.Builder
	t := stats.NewTable(title, "metric", "value")
	t.AddRow("instructions", fmt.Sprint(a.Insts))
	t.AddRow("kernel fraction", stats.Percent(a.KernelFrac()))
	t.AddRow("memory references", fmt.Sprintf("%d (%s of insts)", a.MemRefs, stats.Percent(a.MemFrac())))
	t.AddRow("loads / stores", fmt.Sprintf("%d / %d", a.Loads, a.Stores))
	t.AddRow("bytes read / written", fmt.Sprintf("%d / %d", a.BytesRead, a.BytesStored))
	t.AddRow("branches (taken)", fmt.Sprintf("%d (%s)", a.Branches, stats.Percent(a.TakenRate())))
	t.AddRow("footprint", fmt.Sprintf("%d lines = %d KB, %d pages",
		a.FootprintLines(), a.FootprintBytes()>>10, a.FootprintPages()))
	for _, cs := range a.chunkSizes {
		t.AddRow(fmt.Sprintf("adjacency @%dB chunks", cs), stats.Percent(a.ChunkAdjacency(cs)))
	}
	b.WriteString(t.String())

	// Class mix, densest first.
	type cc struct {
		c isa.Class
		n uint64
	}
	var mix []cc
	for c := 0; c < isa.NumClasses; c++ {
		if a.ClassCounts[c] > 0 {
			mix = append(mix, cc{isa.Class(c), a.ClassCounts[c]})
		}
	}
	sort.Slice(mix, func(i, j int) bool { return mix[i].n > mix[j].n })
	mt := stats.NewTable("instruction mix", "class", "count", "share")
	for _, m := range mix {
		mt.AddRow(m.c.String(), fmt.Sprint(m.n), stats.Percent(float64(m.n)/float64(a.Insts)))
	}
	b.WriteString("\n")
	b.WriteString(mt.String())
	return b.String()
}
