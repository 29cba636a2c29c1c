package policy

import (
	"demosmp/internal/msg"
	"demosmp/internal/obs"
	"demosmp/internal/sim"
)

// Sweeps returns how many rounds have closed.
func (c *Collector) Sweeps() uint64 { return c.sweeps }

// Calibrate folds measured ledger records into the per-migration averages
// (simple means; integer arithmetic for cross-platform determinism) and
// returns how many records it used. Records from failed migrations are
// skipped — an aborted move's freeze window says nothing about the price
// of a successful one.
func (c *CostModel) Calibrate(recs []obs.MigrationRecord) int {
	var n, freeze, admin, fwd uint64
	for i := range recs {
		r := &recs[i]
		if !r.OK {
			continue
		}
		n++
		freeze += uint64(r.FreezeMicros())
		admin += uint64(r.AdminBytes)
		fwd += r.ForwardsAbsorbed
	}
	if n == 0 {
		return 0
	}
	c.FreezeMicros = sim.Time(freeze / n)
	c.AdminBytes = admin / n
	c.ForwardsAbsorbed = fwd / n
	return int(n)
}

// Manual never proposes anything; migrations happen only on explicit
// command — the paper's own deployment state ("the decision to move a
// particular process and the choice of destination were arbitrary").
type Manual struct{}

func (Manual) Name() string                                 { return "manual" }
func (Manual) Decide(sim.Time, []msg.LoadReport) []Decision { return nil }
