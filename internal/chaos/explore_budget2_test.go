//go:build !race

package chaos_test

import (
	"testing"
	"time"
)

// TestExploreBudget2: every pair of faults, the second armed at an event
// after the first's, on the first one's own run. Pruned: a second fault
// that injects nothing is not a leaf, and the run of a first fault that
// already fails its check (TestExploreBudget1 reports it) is not extended.
// Every leaf passes its check, and none has the source both send an Abort
// and commit.
func TestExploreBudget2(t *testing.T) {
	start := time.Now()
	firsts, _ := explore(t, nil)
	var tried, flagged, aborted, reasked, rejected int
	var leaves []leaf
	for _, f := range firsts {
		if len(f.bad) != 0 {
			continue
		}
		ls, n := explore(t, f.sch)
		tried += n
		leaves = append(leaves, ls...)
	}
	flagged = checkLeaves(t, leaves)
	for _, l := range leaves {
		if l.aborted {
			aborted++
		}
		if l.reasked {
			reasked++
		}
		if l.rejected > 0 {
			rejected++
		}
	}
	t.Logf("%d schedules tried, %d leaves, %d flagged; m1 sent an Abort in %d, m2 asked again in %d, a duplicate was dropped in %d; %v",
		tried, len(leaves), flagged, aborted, reasked, rejected, time.Since(start).Round(time.Millisecond))
}
