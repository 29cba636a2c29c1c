package policy

import (
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// Sample is one machine's latest load report plus when it arrived.
type Sample struct {
	At     sim.Time
	Report msg.LoadReport
}

// Collector assembles per-machine load reports into a cluster-wide view
// and detects report-round boundaries, so a policy runs once per round over
// a complete picture instead of once per report over a stale one (§3.1:
// "there must be some mechanism for collecting this information in a
// place where the strategy routines have access to it").
//
// Determinism: the collector's only input is the order load reports reach
// the process manager, and that order is canonical under sharding (the
// per-shard arrival calendars deliver same-tick messages in (to, from, seq)
// order regardless of shard count). A round normally closes when the
// highest-numbered machine reports — kernels on one tick report in
// ascending machine order at the PM — and a repeat of any machine inside a
// round closes it too, so a crashed closer delays the sweep by at most one
// round instead of forever.
type Collector struct {
	// MaxAge drops samples older than this from View (0 keeps all).
	// Crashed or partitioned machines stop reporting; without an age
	// cutoff a policy would keep scheduling onto their last good numbers.
	MaxAge sim.Time

	last    addr.MachineID // expected round closer (highest machine)
	samples map[addr.MachineID]Sample
	seen    map[addr.MachineID]uint64 // value == gen means seen this round
	gen     uint64
	sweeps  uint64
}

// NewCollector returns a collector for the given machine set.
func NewCollector(machines []addr.MachineID, maxAge sim.Time) *Collector {
	c := &Collector{
		MaxAge:  maxAge,
		samples: make(map[addr.MachineID]Sample, len(machines)),
		seen:    make(map[addr.MachineID]uint64, len(machines)),
		gen:     1,
	}
	for _, m := range machines {
		if m > c.last {
			c.last = m
		}
	}
	return c
}

// Observe records one load report and reports whether it closed a round —
// the signal to run the policy over View.
func (c *Collector) Observe(now sim.Time, rep msg.LoadReport) bool {
	wrapped := c.seen[rep.Machine] == c.gen
	c.samples[rep.Machine] = Sample{At: now, Report: rep}
	if wrapped {
		// A machine reported twice without the closer in between: the
		// closer died or is partitioned. Start the new round here.
		c.gen++
	}
	c.seen[rep.Machine] = c.gen
	sweep := wrapped || rep.Machine == c.last
	if rep.Machine == c.last {
		c.gen++
	}
	if sweep {
		c.sweeps++
	}
	return sweep
}

// View returns the freshest sample per machine, machine-sorted, with
// samples older than MaxAge dropped.
func (c *Collector) View(now sim.Time) []msg.LoadReport {
	machines := make([]addr.MachineID, 0, len(c.samples))
	for m := range c.samples {
		machines = append(machines, m)
	}
	sort.Slice(machines, func(i, j int) bool { return machines[i] < machines[j] })
	out := make([]msg.LoadReport, 0, len(machines))
	for _, m := range machines {
		s := c.samples[m]
		if c.MaxAge > 0 && now-s.At > c.MaxAge {
			continue
		}
		out = append(out, s.Report)
	}
	return out
}
