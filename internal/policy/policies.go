package policy

import (
	"fmt"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// capMoves bounds a decision list to max orders per sweep — shared by
// AffinityAware and Composite so one policy pass can never order an
// unbounded burst of simultaneous migrations (each order costs a freeze
// window and admin traffic; hundreds at once would be a self-inflicted
// outage).
func capMoves(out []Decision, max int) []Decision {
	if max > 0 && len(out) > max {
		return out[:max]
	}
	return out
}

// cooldown tracks per-process move hysteresis shared by the policies.
type cooldown struct {
	every sim.Time
	last  map[addr.ProcessID]sim.Time
}

func newCooldown(every sim.Time) cooldown {
	return cooldown{every: every, last: make(map[addr.ProcessID]sim.Time)}
}

func (c *cooldown) ready(pid addr.ProcessID, now sim.Time) bool {
	last, ok := c.last[pid]
	return !ok || now-last >= c.every
}

func (c *cooldown) mark(pid addr.ProcessID, now sim.Time) { c.last[pid] = now }

// balance is the loop QueueDepth and MemoryPressure share. It picks the
// machines with the most and the least of a per-machine signal, gives up
// unless the source is at or above high and the pair at least gap apart,
// and orders the weightiest movable process on the source to the
// destination. move reports a process's weight, how far moving it shifts
// the signal, and whether it may move at all. Each order shifts the
// picture: the next pair is chosen as if the previous move had already
// landed, spreading a burst over several destinations instead of dogpiling
// the idlest. reason formats the source's and destination's signal.
func balance(now sim.Time, loads []msg.LoadReport, cd *cooldown, maxMoves int, high, gap uint32, reason string,
	signal func(*msg.LoadReport) uint32, move func(*msg.ProcLoad) (weight, shift uint32, ok bool)) []Decision {
	if len(loads) < 2 {
		return nil
	}
	sig := make([]uint32, len(loads))
	for i := range loads {
		sig[i] = signal(&loads[i])
	}
	moved := make(map[addr.ProcessID]bool)
	var out []Decision
	if maxMoves <= 0 {
		maxMoves = 1
	}
	for len(out) < maxMoves {
		src, dst := -1, -1
		for i := range loads {
			if src < 0 || sig[i] > sig[src] {
				src = i
			}
			if dst < 0 || sig[i] < sig[dst] {
				dst = i
			}
		}
		if src == dst || sig[src] < high || sig[src]-sig[dst] < gap {
			break
		}
		var best *msg.ProcLoad
		var bestWeight, bestShift uint32
		for i := range loads[src].Procs {
			pl := &loads[src].Procs[i]
			w, shift, ok := move(pl)
			if !ok || moved[pl.PID] || !cd.ready(pl.PID, now) {
				continue
			}
			if best == nil || w > bestWeight {
				best, bestWeight, bestShift = pl, w, shift
			}
		}
		if best == nil {
			break
		}
		moved[best.PID] = true
		cd.mark(best.PID, now)
		out = append(out, Decision{
			PID: best.PID, From: loads[src].Machine, Dest: loads[dst].Machine,
			Reason: fmt.Sprintf(reason, sig[src], sig[dst]),
		})
		sig[src] -= bestShift
		sig[dst] += bestShift
	}
	return out
}

// QueueDepth balances on ready-queue depth instead of CPU%. Under bimodal
// service times a machine stuck behind long jobs saturates at 100% CPU just
// like a merely busy one — the run-queue depth still tells them apart, so
// depth is the better overload signal when service times are heavy-tailed.
type QueueDepth struct {
	HighDepth uint16 // source queue depth at or above this is overloaded
	Gap       uint16 // minimum src-dst depth difference (hysteresis)
	MinCPU    uint32 // don't pay migration cost for an idle process
	MaxMoves  int    // orders per sweep

	cd cooldown
}

// NewQueueDepth returns a queue-depth balancing policy.
func NewQueueDepth(highDepth, gap uint16, cooldownT sim.Time) *QueueDepth {
	return &QueueDepth{
		HighDepth: highDepth, Gap: gap, MinCPU: 1000, MaxMoves: 4,
		cd: newCooldown(cooldownT),
	}
}

func (p *QueueDepth) Name() string { return "queue-depth" }

// Decide moves the hungriest process off the deepest queue; each move
// shortens that queue by one.
func (p *QueueDepth) Decide(now sim.Time, loads []msg.LoadReport) []Decision {
	return balance(now, loads, &p.cd, p.MaxMoves, uint32(p.HighDepth), uint32(p.Gap), "queue %d -> %d",
		func(l *msg.LoadReport) uint32 { return uint32(l.Ready) },
		func(pl *msg.ProcLoad) (uint32, uint32, bool) { return pl.CPUMicros, 1, pl.CPUMicros >= p.MinCPU })
}

// MemoryPressure relieves the machine with the most memory in use by
// moving its largest process to the machine with the least — §3.1's
// "memory demand for each machine" signal. CPU balancing ignores a machine
// that is idle but full; this policy is the complement.
type MemoryPressure struct {
	HighKB   uint32 // source MemUsedKB at or above this is under pressure
	GapKB    uint32 // minimum src-dst difference (hysteresis)
	MaxMoves int

	cd cooldown
}

// NewMemoryPressure returns a memory balancing policy.
func NewMemoryPressure(highKB, gapKB uint32, cooldownT sim.Time) *MemoryPressure {
	return &MemoryPressure{HighKB: highKB, GapKB: gapKB, MaxMoves: 2, cd: newCooldown(cooldownT)}
}

func (p *MemoryPressure) Name() string { return "memory-pressure" }

// Decide moves the largest process off the fullest machine; each move
// carries its memory with it.
func (p *MemoryPressure) Decide(now sim.Time, loads []msg.LoadReport) []Decision {
	return balance(now, loads, &p.cd, p.MaxMoves, p.HighKB, p.GapKB, "mem %dKB -> %dKB",
		func(l *msg.LoadReport) uint32 { return l.MemUsedKB },
		func(pl *msg.ProcLoad) (uint32, uint32, bool) { return pl.MemKB, pl.MemKB, pl.MemKB > 0 })
}

// AffinityAware moves a process toward the machine it talks to most (§1:
// "Moving a process closer to the resource it is using most heavily may
// reduce system-wide communication traffic"), but only when the cost model
// says the saved cross-machine traffic repays the migration price within
// the payback horizon, and only when the destination — read from the
// collector's view, i.e. the link topology's other end — has CPU headroom
// to absorb the process. Candidates are ranked by traffic saved so a capped
// sweep spends its orders on the biggest wins first; the capped-out ones
// keep their cooldown clear and get another shot next sweep.
type AffinityAware struct {
	MinMsgs    uint32 // messages per period to even consider a move
	MaxDestPct uint8  // skip destinations busier than this
	MaxMoves   int
	Cost       *CostModel

	cd cooldown
}

// NewAffinityAware returns a cost-gated affinity policy.
func NewAffinityAware(minMsgs uint32, cooldownT sim.Time, cost *CostModel) *AffinityAware {
	if cost == nil {
		cost = DefaultCostModel()
	}
	return &AffinityAware{
		MinMsgs: minMsgs, MaxDestPct: 85, MaxMoves: 4, Cost: cost,
		cd: newCooldown(cooldownT),
	}
}

func (p *AffinityAware) Name() string { return "affinity-aware" }

func (p *AffinityAware) Decide(now sim.Time, loads []msg.LoadReport) []Decision {
	busy := make(map[addr.MachineID]uint8, len(loads))
	for i := range loads {
		busy[loads[i].Machine] = loads[i].CPUPercent
	}
	type cand struct {
		pl   msg.ProcLoad
		from addr.MachineID
	}
	var cands []cand
	for i := range loads {
		l := &loads[i]
		for j := range l.Procs {
			pl := &l.Procs[j]
			if pl.TopPeer == addr.NoMachine || pl.TopPeer == l.Machine {
				continue
			}
			if pl.TopPeerMsgs < p.MinMsgs || !p.cd.ready(pl.PID, now) {
				continue
			}
			pct, known := busy[pl.TopPeer]
			if !known || pct > p.MaxDestPct {
				continue // destination unknown or too hot to absorb it
			}
			if !p.Cost.Worthwhile(p.Cost.AffinityGain(*pl)) {
				continue // traffic saved never repays the freeze+admin price
			}
			cands = append(cands, cand{pl: *pl, from: l.Machine})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.pl.TopPeerMsgs != b.pl.TopPeerMsgs {
			return a.pl.TopPeerMsgs > b.pl.TopPeerMsgs
		}
		if a.pl.PID.Creator != b.pl.PID.Creator {
			return a.pl.PID.Creator < b.pl.PID.Creator
		}
		return a.pl.PID.Local < b.pl.PID.Local
	})
	var out []Decision
	for _, c := range cands {
		out = append(out, Decision{
			PID: c.pl.PID, From: c.from, Dest: c.pl.TopPeer,
			Reason: fmt.Sprintf("%d msgs/period to m%d, payback ok", c.pl.TopPeerMsgs, uint16(c.pl.TopPeer)),
		})
	}
	out = capMoves(out, p.MaxMoves)
	for _, d := range out {
		p.cd.mark(d.PID, now)
	}
	return out
}

// Rule is one weighted member of a Composite policy.
type Rule struct {
	Policy Policy
	Weight int // higher-weight rules win PID conflicts and sort first
}

// Composite runs several policies over the same view and merges their
// orders: when two rules want to move the same process, the higher-weight
// rule's order wins; the merged list is capped at MaxMoves, spending the
// budget on the highest-weight orders first.
type Composite struct {
	Rules    []Rule
	MaxMoves int
}

// NewComposite returns a weighted composite policy.
func NewComposite(maxMoves int, rules ...Rule) *Composite {
	return &Composite{Rules: rules, MaxMoves: maxMoves}
}

func (p *Composite) Name() string { return "composite" }

func (p *Composite) Decide(now sim.Time, loads []msg.LoadReport) []Decision {
	type weighted struct {
		d      Decision
		weight int
		rule   int
	}
	best := make(map[addr.ProcessID]weighted)
	var pids []addr.ProcessID
	for ri, r := range p.Rules {
		for _, d := range r.Policy.Decide(now, loads) {
			w := weighted{d: d, weight: r.Weight, rule: ri}
			prev, ok := best[d.PID]
			if !ok {
				pids = append(pids, d.PID)
				best[d.PID] = w
				continue
			}
			if w.weight > prev.weight {
				best[d.PID] = w
			}
		}
	}
	sort.Slice(pids, func(i, j int) bool {
		a, b := best[pids[i]], best[pids[j]]
		if a.weight != b.weight {
			return a.weight > b.weight
		}
		if a.rule != b.rule {
			return a.rule < b.rule
		}
		if a.d.PID.Creator != b.d.PID.Creator {
			return a.d.PID.Creator < b.d.PID.Creator
		}
		return a.d.PID.Local < b.d.PID.Local
	})
	var out []Decision
	for _, id := range pids {
		w := best[id]
		w.d.Reason = fmt.Sprintf("%s[w%d]: %s", p.Rules[w.rule].Policy.Name(), w.weight, w.d.Reason)
		out = append(out, w.d)
	}
	return capMoves(out, p.MaxMoves)
}
