package policy

import (
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// CostModel prices a prospective migration so policies can weigh expected
// gain against it — the §3.1 hysteresis requirement made quantitative. The
// model starts from the paper's §6 measurements (three state transfers,
// nine administrative messages of 6–12 bytes, a short forwarding tail).
type CostModel struct {
	// Measured (or assumed) per-migration averages.
	FreezeMicros     sim.Time // freeze window: process off-CPU start→cleanup
	AdminBytes       uint64   // administrative message bytes
	ForwardsAbsorbed uint64   // residual messages the forwarder eats

	// Modeled unit prices.
	AdminByteMicros sim.Time // wire+kernel cost per administrative byte
	ForwardMicros   sim.Time // per-forward penalty (+2 frames each, §5)
	CrossMsgMicros  sim.Time // extra cost of one cross-machine user message

	// PaybackPeriods is the horizon (in report periods) over which a
	// recurring per-period gain must repay the one-time migration cost.
	PaybackPeriods sim.Time
}

// DefaultCostModel returns a model seeded from the paper's §6 numbers.
func DefaultCostModel() *CostModel {
	return &CostModel{
		FreezeMicros:     2500, // same order as the measured freeze window
		AdminBytes:       80,   // 9 messages × ~9 bytes
		ForwardsAbsorbed: 2,    // link convergence ≤ 2 stale sends
		AdminByteMicros:  2,
		ForwardMicros:    20,
		CrossMsgMicros:   15,
		PaybackPeriods:   4,
	}
}

// MigrationMicros is the modeled one-time price of a migration.
func (c *CostModel) MigrationMicros() sim.Time {
	return c.FreezeMicros +
		sim.Time(c.AdminBytes)*c.AdminByteMicros +
		sim.Time(c.ForwardsAbsorbed)*c.ForwardMicros
}

// Worthwhile reports whether a recurring per-period gain repays the
// migration price within the payback horizon.
func (c *CostModel) Worthwhile(gainPerPeriod sim.Time) bool {
	return gainPerPeriod*c.PaybackPeriods >= c.MigrationMicros()
}

// AffinityGain estimates the per-period gain of moving pl next to its top
// peer: every message that was crossing the network becomes local.
func (c *CostModel) AffinityGain(pl msg.ProcLoad) sim.Time {
	return sim.Time(pl.TopPeerMsgs) * c.CrossMsgMicros
}
