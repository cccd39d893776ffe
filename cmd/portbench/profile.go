package main

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// profiler owns the pprof outputs requested on the command line. CPU
// profiling runs for the whole suite; the heap and allocation profiles are
// snapshots written at stop time.
type profiler struct {
	cpuFile             *os.File
	memPath, allocsPath string
	// rate is runtime.MemProfileRate before an allocation profile set it
	// to 1, restored once the profiles are written.
	rate int
}

// startProfiles opens the requested profile outputs. The returned profiler's
// stop must run even on error paths, or the CPU profile is truncated. An
// allocation profile records every malloc from here on: the runtime
// samples one per 512 KiB allocated unless MemProfileRate is 1, and a
// sampled profile of a campaign whose work allocates a few thousand small
// objects names runtime setup and little else.
func startProfiles(cpuPath, memPath, allocsPath string) (*profiler, error) {
	p := &profiler{memPath: memPath, allocsPath: allocsPath, rate: runtime.MemProfileRate}
	if allocsPath != "" {
		runtime.MemProfileRate = 1
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		p.cpuFile = f
	}
	return p, nil
}

// stop finalises every requested profile. Both memory profiles run a GC
// first: the runtime publishes an allocation to its profiles only at the
// end of the collection cycle after it, so without one the allocs profile
// would miss everything since the last completed GC and the heap profile
// would show garbage awaiting collection.
func (p *profiler) stop() error {
	defer func() { runtime.MemProfileRate = p.rate }()
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return err
		}
	}
	if p.memPath != "" || p.allocsPath != "" {
		runtime.GC()
	}
	if p.memPath != "" {
		if err := writeProfile("heap", p.memPath); err != nil {
			return err
		}
	}
	if p.allocsPath != "" {
		if err := writeProfile("allocs", p.allocsPath); err != nil {
			return err
		}
	}
	return nil
}

func writeProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return pprof.Lookup(name).WriteTo(f, 0)
}
