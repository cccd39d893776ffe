//go:build !portsimcount

package cpu

// workCounts is empty unless the portsimcount build tag compiles in the
// deterministic work counters (count_on.go); its methods then inline to
// nothing.
type workCounts struct{}

func (*workCounts) liveVisit()  {}
func (*workCounts) wakeFiling() {}
func (*workCounts) sqWalkStep() {}
func (*workCounts) tryLoad()    {}
