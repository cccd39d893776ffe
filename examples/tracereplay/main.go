// Tracereplay demonstrates the trace workflow: generate a workload's
// instruction stream once, serialise it to the compact binary trace format,
// and replay the identical stream against several machine configurations —
// the way studies hold the workload constant while sweeping hardware.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"portsim"
	"portsim/internal/isa"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

func main() {
	const insts = 100_000
	path := filepath.Join(os.TempDir(), "portsim-demo.trace")

	// 1. Capture: generate the mp3d stream and write it out.
	prof, ok := workload.ByName("mp3d")
	if !ok {
		log.Fatal("mp3d workload missing")
	}
	gen, err := workload.New(prof, 42)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	w := trace.NewWriter(f)
	var buf [256]isa.Inst
	for w.Count() < insts {
		batch := buf[:min(insts-w.Count(), uint64(len(buf)))]
		gen.NextBatch(batch)
		for i := range batch {
			if err := w.Write(&batch[i]); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(path)
	fmt.Printf("captured %d instructions to %s (%.2f bytes/inst)\n\n",
		w.Count(), path, float64(info.Size())/float64(w.Count()))

	// 2. Replay the identical stream on each machine preset.
	for _, preset := range []string{"baseline", "banked-4", "best-single", "dual-port"} {
		cfg, ok := portsim.ConfigByName(preset)
		if !ok {
			log.Fatalf("unknown preset %q", preset)
		}
		rf, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		reader := trace.NewReader(rf)
		sim, err := portsim.NewFromStream(cfg, reader)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(0) // to end of trace
		if err != nil {
			log.Fatal(err)
		}
		if err := reader.Err(); err != nil {
			log.Fatal(err)
		}
		rf.Close()
		fmt.Printf("%-12s IPC %.3f (%d cycles)\n", preset, res.IPC, res.Cycles)
	}
	os.Remove(path)
}
