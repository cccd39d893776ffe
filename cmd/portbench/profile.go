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
}

// startProfiles opens the requested profile outputs. The returned profiler's
// stop must run even on error paths, or the CPU profile is truncated.
func startProfiles(cpuPath, memPath, allocsPath string) (*profiler, error) {
	p := &profiler{memPath: memPath, allocsPath: allocsPath}
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

// stop finalises every requested profile. The heap profile runs a GC first
// so it shows live memory, not garbage awaiting collection; the allocs
// profile deliberately does not — it records every allocation since start,
// which is the signal a zero-alloc cycle loop is judged by.
func (p *profiler) stop() error {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return err
		}
	}
	if p.memPath != "" {
		runtime.GC()
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
