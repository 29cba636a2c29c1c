// Package killfix exercises inventory: Point constants and Config bool
// flags partially referenced from killfix_test.go — the unreferenced ones
// must be reported, and the non-bool / unexported fields ignored.
package killfix

// Point mimics kernel.KillPoint.
type Point uint8

const (
	PSourceFrozen Point = iota + 1
	PDestArrived
	PNeverKilled // not referenced by any test: want inventory
)

// PointCount is plain int, not a Point: outside the rule.
const PointCount = int(PNeverKilled)

// Config mimics kernel.Config.
type Config struct {
	FlagTested   bool
	FlagUntested bool // not referenced by any test: want inventory
	Budget       int  // non-bool: outside the rule
	hidden       bool // unexported: outside the rule
}

// use keeps the unexported field from being declared-and-unused dead.
func (c Config) use() bool { return c.hidden }

// Runtime mimics core.Options: its Shards field is the shard marker that
// makes a test file count as sharded for the chaos-kind rule.
type Runtime struct {
	Shards int
}

// Partition and LossBurst mimic the netw fault surface: Partition is
// referenced from the sharded test file, LossBurst only from the classic
// one — so the "burst" kind must be reported.
func Partition(a, b int)     {}
func LossBurst(rate float64) {}
