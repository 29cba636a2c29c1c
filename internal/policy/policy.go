// Package policy implements migration decision rules for the process
// manager.
//
// The paper left this open: "The mechanism for moving a process has been
// implemented, but there is not yet a strategy routine that actually
// decides when to move a process" (§7). It does, however, enumerate what a
// rule needs (§3.1): resource-use evaluation, per-machine load assessment,
// a way to collect the information in one place, an improvement strategy,
// and "a hysteresis mechanism to keep from incurring the cost of migration
// more often than justified by the gains". The policies here implement
// those features over the kernels' load reports.
package policy

import (
	"fmt"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// Decision is one migration order.
type Decision struct {
	PID    addr.ProcessID
	From   addr.MachineID
	Dest   addr.MachineID
	Reason string
}

// Policy examines the latest load reports and proposes migrations.
type Policy interface {
	Name() string
	Decide(now sim.Time, loads []msg.LoadReport) []Decision
}

// Threshold moves a process from an overloaded machine to the least loaded
// one. Hysteresis comes from three guards: the high/low water gap, a
// per-process cooldown, and a minimum CPU share for the moved process (no
// point paying migration cost for an idle process).
type Threshold struct {
	HighWater uint8  // source CPU% at or above this is overloaded
	LowWater  uint8  // destination CPU% at or below this is a target
	MinCPU    uint32 // minimum CPUMicros in the last report period

	cd cooldown // minimum time between moves of the same process
}

// NewThreshold returns a load-balancing policy with the given waters.
func NewThreshold(high, low uint8, cooldownT sim.Time) *Threshold {
	return &Threshold{HighWater: high, LowWater: low, MinCPU: 1000, cd: newCooldown(cooldownT)}
}

func (p *Threshold) Name() string { return "threshold" }

func (p *Threshold) Decide(now sim.Time, loads []msg.LoadReport) []Decision {
	if len(loads) < 2 {
		return nil
	}
	var busiest, idlest *msg.LoadReport
	for i := range loads {
		l := &loads[i]
		if busiest == nil || l.CPUPercent > busiest.CPUPercent ||
			(l.CPUPercent == busiest.CPUPercent && l.Ready > busiest.Ready) {
			busiest = l
		}
		if idlest == nil || l.CPUPercent < idlest.CPUPercent {
			idlest = l
		}
	}
	if busiest.Machine == idlest.Machine {
		return nil
	}
	if busiest.CPUPercent < p.HighWater || idlest.CPUPercent > p.LowWater {
		return nil // the gap is not worth a migration (hysteresis)
	}
	if len(busiest.Procs) < 2 {
		return nil // moving the only process just moves the problem
	}
	// Pick the hungriest recently-movable process.
	var best *msg.ProcLoad
	for i := range busiest.Procs {
		pl := &busiest.Procs[i]
		if pl.CPUMicros < p.MinCPU || !p.cd.ready(pl.PID, now) {
			continue
		}
		if best == nil || pl.CPUMicros > best.CPUMicros {
			best = pl
		}
	}
	if best == nil {
		return nil
	}
	p.cd.mark(best.PID, now)
	return []Decision{{
		PID: best.PID, From: busiest.Machine, Dest: idlest.Machine,
		Reason: fmt.Sprintf("cpu %d%% -> %d%%", busiest.CPUPercent, idlest.CPUPercent),
	}}
}

// NewCommAffinity returns the plain affinity policy: AffinityAware with the
// migration priced at zero, so a process with minMsgs messages per period
// to one other machine always repays the move, and with no destination too
// busy to take it.
func NewCommAffinity(minMsgs uint32, cooldownT sim.Time) *AffinityAware {
	p := NewAffinityAware(minMsgs, cooldownT, &CostModel{})
	p.MaxDestPct = 100
	return p
}

// Drain evacuates every process from one machine — the fault-recovery use
// of migration (§1: "working processes may be migrated from a dying
// processor (like rats leaving a sinking ship) before it completely
// fails").
type Drain struct {
	Dying addr.MachineID

	ordered map[addr.ProcessID]bool
	next    int // round-robin cursor over the surviving machines
}

// NewDrain returns a policy that empties machine m.
func NewDrain(m addr.MachineID) *Drain {
	return &Drain{Dying: m, ordered: make(map[addr.ProcessID]bool)}
}

func (p *Drain) Name() string { return "drain" }

func (p *Drain) Decide(now sim.Time, loads []msg.LoadReport) []Decision {
	var dying *msg.LoadReport
	var targets []*msg.LoadReport
	for i := range loads {
		l := &loads[i]
		if l.Machine == p.Dying {
			dying = l
			continue
		}
		targets = append(targets, l)
	}
	if dying == nil || len(targets) == 0 {
		return nil
	}
	// Spread evacuees round-robin across the survivors, calmest first —
	// dumping a whole machine's worth of processes on the single calmest
	// machine would just move the hotspot.
	sort.Slice(targets, func(i, j int) bool {
		a, b := targets[i], targets[j]
		if a.CPUPercent != b.CPUPercent {
			return a.CPUPercent < b.CPUPercent
		}
		return a.Machine < b.Machine
	})
	var out []Decision
	for i := range dying.Procs {
		pl := &dying.Procs[i]
		if p.ordered[pl.PID] {
			continue
		}
		p.ordered[pl.PID] = true
		dest := targets[p.next%len(targets)].Machine
		p.next++
		out = append(out, Decision{
			PID: pl.PID, From: p.Dying, Dest: dest,
			Reason: "evacuating dying processor",
		})
	}
	return out
}
