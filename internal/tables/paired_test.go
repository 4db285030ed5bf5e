package tables

import (
	"runtime"
	"sort"
	"time"
)

// medianPairedRatio compares two timed calls in n back-to-back pairs and
// returns the median over pairs of the first call's time over the
// second's. newPair supplies each pair's two calls, so a pair can run on
// fresh copies of its inputs and the median averages over memory layouts
// rather than resting on one. Each side's time in a pair is the sum of runs
// GC-isolated calls, interleaved with the other side's and starting from
// alternating sides, so drift, warm-up and whatever load the host carries
// at that moment fall on both sides alike — a per-pair ratio cancels them
// where a best-of-N on each side separately does not.
func medianPairedRatio(n, runs int, newPair func() (a, b func() time.Duration)) float64 {
	ratios := make([]float64, n)
	for i := range ratios {
		a, b := newPair()
		var ta, tb time.Duration
		for k := 0; k < runs; k++ {
			if (i+k)%2 == 0 {
				runtime.GC()
				ta += a()
				runtime.GC()
				tb += b()
			} else {
				runtime.GC()
				tb += b()
				runtime.GC()
				ta += a()
			}
		}
		ratios[i] = float64(ta) / float64(tb)
	}
	sort.Float64s(ratios)
	return ratios[n/2]
}
