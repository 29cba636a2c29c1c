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
	HighWater uint8    // source CPU% at or above this is overloaded
	LowWater  uint8    // destination CPU% at or below this is a target
	Cooldown  sim.Time // minimum time between moves of the same process
	MinCPU    uint32   // minimum CPUMicros in the last report period

	lastMove map[addr.ProcessID]sim.Time
}

// NewThreshold returns a load-balancing policy with the given waters.
func NewThreshold(high, low uint8, cooldown sim.Time) *Threshold {
	return &Threshold{
		HighWater: high, LowWater: low, Cooldown: cooldown,
		MinCPU:   1000,
		lastMove: make(map[addr.ProcessID]sim.Time),
	}
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
		if pl.CPUMicros < p.MinCPU {
			continue
		}
		if last, ok := p.lastMove[pl.PID]; ok && now-last < p.Cooldown {
			continue
		}
		if best == nil || pl.CPUMicros > best.CPUMicros {
			best = pl
		}
	}
	if best == nil {
		return nil
	}
	p.lastMove[best.PID] = now
	return []Decision{{
		PID: best.PID, From: busiest.Machine, Dest: idlest.Machine,
		Reason: fmt.Sprintf("cpu %d%% -> %d%%", busiest.CPUPercent, idlest.CPUPercent),
	}}
}

// CommAffinity moves a process toward the machine it talks to most,
// reducing inter-machine traffic (§1: "Moving a process closer to the
// resource it is using most heavily may reduce system-wide communication
// traffic").
type CommAffinity struct {
	MinMsgs  uint32 // messages per report period to justify a move
	Cooldown sim.Time
	MaxMoves int // orders per call; a burst of chatty processes must not
	// turn into hundreds of simultaneous migrations

	lastMove map[addr.ProcessID]sim.Time
}

// NewCommAffinity returns an affinity policy.
func NewCommAffinity(minMsgs uint32, cooldown sim.Time) *CommAffinity {
	return &CommAffinity{MinMsgs: minMsgs, Cooldown: cooldown, MaxMoves: 4,
		lastMove: make(map[addr.ProcessID]sim.Time)}
}

func (p *CommAffinity) Name() string { return "comm-affinity" }

func (p *CommAffinity) Decide(now sim.Time, loads []msg.LoadReport) []Decision {
	type cand struct {
		d    Decision
		msgs uint32
	}
	var cands []cand
	for i := range loads {
		l := &loads[i]
		for j := range l.Procs {
			pl := &l.Procs[j]
			if pl.TopPeer == addr.NoMachine || pl.TopPeer == l.Machine {
				continue
			}
			if pl.TopPeerMsgs < p.MinMsgs {
				continue
			}
			if last, ok := p.lastMove[pl.PID]; ok && now-last < p.Cooldown {
				continue
			}
			cands = append(cands, cand{msgs: pl.TopPeerMsgs, d: Decision{
				PID: pl.PID, From: l.Machine, Dest: pl.TopPeer,
				Reason: fmt.Sprintf("%d msgs/period to m%d", pl.TopPeerMsgs, uint16(pl.TopPeer)),
			}})
		}
	}
	// Spend a capped budget on the chattiest processes first; the rest
	// keep their cooldown clear and get another shot next sweep.
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.msgs != b.msgs {
			return a.msgs > b.msgs
		}
		if a.d.PID.Creator != b.d.PID.Creator {
			return a.d.PID.Creator < b.d.PID.Creator
		}
		return a.d.PID.Local < b.d.PID.Local
	})
	var out []Decision
	for _, c := range cands {
		out = append(out, c.d)
	}
	out = capMoves(out, p.MaxMoves)
	for _, d := range out {
		p.lastMove[d.PID] = now
	}
	return out
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
