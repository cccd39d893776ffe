//go:build portsimcount

package cpu

// workCounts counts, per core, the scheduler work behind a run: live-set
// visits by the issue scan, wake-wheel filings, store-queue walk steps and
// memory-port TryLoad calls. The counts are deterministic, so a test can
// pin them exactly and an algorithmic regression fails on any host. They
// exist only under the portsimcount build tag; count_off.go compiles them
// out otherwise.
type workCounts struct {
	liveVisits, wakeFilings, sqWalkSteps, tryLoads uint64
}

func (w *workCounts) liveVisit()  { w.liveVisits++ }
func (w *workCounts) wakeFiling() { w.wakeFilings++ }
func (w *workCounts) sqWalkStep() { w.sqWalkSteps++ }
func (w *workCounts) tryLoad()    { w.tryLoads++ }
