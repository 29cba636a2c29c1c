// Cluster-wide invariant checking: after a fault schedule has run and the
// engine is quiescent, these audits prove the migration protocol survived
// — nothing executes twice, nothing is silently lost, every forwarding
// chain still leads somewhere, and no pooled envelope leaked.
package chaos

import (
	"fmt"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/core"
	"demosmp/internal/kernel"
	"demosmp/internal/obs"
)

// CheckInvariants audits a quiescent cluster and returns one human-readable
// violation per broken invariant (empty means clean). It checks:
//
//  1. no stuck migrations: every live kernel's in/out migration tables are
//     empty once the event queue has drained;
//  2. at-most-one live copy: a pid executes on at most one machine —
//     the failure mode migration protocols are most prone to (a crash
//     between step 5 and step 7 leaving both copies runnable);
//  3. forwarding-chain convergence: every forwarding address reaches a
//     live copy, an exit record, or an accounted loss (crashed or
//     restarted machine, recorded lost pid) within machines+2 hops;
//  4. envelope conservation: pooled message envelopes allocated across
//     all kernels equal those free plus those held on queues — a leak,
//     a double-release or an envelope still parked in a shard's return
//     pool anywhere breaks the cluster-wide sum, the lossy network's
//     master and wire copies (drawn from the kernels' pools) included;
//  5. no in-flight network state: the machine-anchored ARQ holds no
//     un-acked flights and no shard's canonical arrival calendar holds
//     frames — every send either delivered, died into an accounted
//     sink, or was dropped with a counter.
func CheckInvariants(c *core.Cluster) []string {
	var bad []string
	n := c.Machines()

	// 1. No stuck migrations.
	for m := 1; m <= n; m++ {
		k := c.Kernel(m)
		if k.Crashed() {
			continue
		}
		if p := k.PendingMigrations(); p != 0 {
			bad = append(bad, fmt.Sprintf("machine %d: %d migrations still pending at quiescence", m, p))
		}
	}

	// 2. At most one live copy of every pid.
	live := map[addr.ProcessID][]int{}
	var pids []addr.ProcessID
	for m := 1; m <= n; m++ {
		k := c.Kernel(m)
		if k.Crashed() {
			continue
		}
		for _, info := range k.Processes() {
			if info.State == kernel.StateForwarder {
				continue
			}
			if len(live[info.PID]) == 0 {
				pids = append(pids, info.PID)
			}
			live[info.PID] = append(live[info.PID], m)
		}
	}
	sortPIDs(pids)
	for _, pid := range pids {
		if ms := live[pid]; len(ms) > 1 {
			bad = append(bad, fmt.Sprintf("%v is live on %d machines %v — migration forked the process", pid, len(ms), ms))
		}
	}

	// 3. Forwarding chains converge.
	for m := 1; m <= n; m++ {
		k := c.Kernel(m)
		if k.Crashed() {
			continue
		}
		for _, info := range k.Processes() {
			if info.State != kernel.StateForwarder {
				continue
			}
			if why := followChain(c, m, info); why != "" {
				bad = append(bad, fmt.Sprintf("forwarder for %v on machine %d: %s", info.PID, m, why))
			}
		}
	}

	// 4. Envelope conservation. An envelope returns to the pool that
	// constructed it, but PoolStats counts a held envelope where it is
	// held (a frame allocated by the sender sits in the receiver's queue),
	// so the cluster-wide sum is the law. It covers the lossy network's
	// copies too: ARQ masters and wire copies are drawn from these pools,
	// and with no flight and no pending frame left (item 5) every one of
	// them must be back. An envelope parked in a shard's return pool is
	// neither free nor held, so one the last barrier failed to send home
	// breaks the sum as well.
	var news, free, held int
	for m := 1; m <= n; m++ {
		kn, kf, kh := c.Kernel(m).PoolStats()
		news, free, held = news+kn, free+kf, held+kh
	}
	if news != free+held {
		bad = append(bad, fmt.Sprintf("envelope leak: %d allocated != %d free + %d held", news, free, held))
	}

	// 5. No in-flight network state at quiescence.
	if fl := c.InflightARQ(); fl != 0 {
		bad = append(bad, fmt.Sprintf("%d ARQ flights still un-acked at quiescence", fl))
	}
	if p := c.PendingFrames(); p != 0 {
		bad = append(bad, fmt.Sprintf("%d frames still in canonical arrival calendars at quiescence", p))
	}

	return bad
}

// followChain walks a forwarding chain and returns "" if it converges, or
// the reason it does not. A chain legally ends at a live copy, at a
// machine holding the pid's exit record, at a machine that crashed or was
// restarted (its forwarders are acknowledged casualties), or at a pid a
// restart recorded as lost.
func followChain(c *core.Cluster, start int, f kernel.ProcInfo) string {
	pid := f.PID
	cur := int(f.FwdTo)
	maxHops := c.Machines() + 2
	for hop := 0; hop <= maxHops; hop++ {
		if cur < 1 || cur > c.Machines() {
			return fmt.Sprintf("points off-cluster (machine %d)", cur)
		}
		k := c.Kernel(cur)
		if k.Crashed() {
			return "" // crashed machine: unknowable, and traffic there is accounted
		}
		info, ok := k.Process(pid)
		if !ok {
			if _, _, exited := c.ExitOf(pid); exited {
				return ""
			}
			if k.Restarts() > 0 {
				return "" // restart wiped state here; stale links fall back to search
			}
			if pidLostAnywhere(c, pid) {
				return ""
			}
			return fmt.Sprintf("dangles at machine %d (no copy, no exit, no crash)", cur)
		}
		if info.State != kernel.StateForwarder {
			return "" // converged on the live copy
		}
		cur = int(info.FwdTo)
	}
	return fmt.Sprintf("no convergence within %d hops (cycle?)", maxHops)
}

func pidLostAnywhere(c *core.Cluster, pid addr.ProcessID) bool {
	for m := 1; m <= c.Machines(); m++ {
		for _, lost := range c.Kernel(m).LostPIDs() {
			if lost == pid {
				return true
			}
		}
	}
	return false
}

// CheckDelivery audits at-most-once delivery of a sequence-stamped user
// stream against a Recorder's ledger: seen maps sequence number to arrival
// count, and sequences 0..sent-1 were sent. Duplicates are violations
// unconditionally. Missing sequences must be covered by the cluster's loss
// accounting — every counter a message can die under, summed — except when
// checkpointed processes were revived: revival rolls a body back to its
// snapshot, which can erase the record of deliveries that did happen (the
// honest gap of §1's stable-storage recovery, see DESIGN.md §9).
func CheckDelivery(c *core.Cluster, seen map[uint32]uint32, sent uint32) []string {
	var bad []string
	var missing uint64
	for s := uint32(0); s < sent; s++ {
		switch n := seen[s]; {
		case n > 1:
			bad = append(bad, fmt.Sprintf("seq %d delivered %d times — at-most-once broken", s, n))
		case n == 0:
			missing++
		}
	}

	// NetStats sums counters across the shard networks. Each frame the
	// network abandons is in exactly one of its five loss counters, and in
	// no kernel counter, so every loss enters the budget once.
	ns := c.NetStats()
	budget := ns.Dead + ns.SendFromDown + ns.PartitionDropped + ns.BurstDropped + ns.OrphanDropped
	var revived uint64
	for m := 1; m <= c.Machines(); m++ {
		ks := c.Kernel(m).Stats()
		budget += ks.DeadLetters + ks.CrashWipedMsgs + ks.DroppedWhileCrashed + ks.LocateDropped
		revived += ks.Revived
	}
	switch {
	case missing == 0:
	case budget == 0 && revived == 0:
		bad = append(bad, fmt.Sprintf("%d sequences missing with zero accounted losses", missing))
	case missing > budget && revived == 0:
		bad = append(bad, fmt.Sprintf("%d sequences missing but only %d losses accounted", missing, budget))
	}
	return bad
}

func sortPIDs(pids []addr.ProcessID) {
	sort.Slice(pids, func(i, j int) bool {
		if pids[i].Creator != pids[j].Creator {
			return pids[i].Creator < pids[j].Creator
		}
		return pids[i].Local < pids[j].Local
	})
}

// CheckRegistry cross-checks an obs snapshot against direct struct reads:
// every metric the registry derives from kernel.Stats and netw.Stats is
// re-derived here from a fresh copy of the live struct (obs.AppendStruct,
// the registry's own derivation) and compared, so a registry wired to the
// wrong struct — a stale copy included — disagrees on whatever moved since.
// The computed values (admin_total, the pool gauges) are checked against
// their accessors, and the envelope conservation law is re-derived purely
// from registry values — the soak's post-run snapshot must balance exactly
// like the PoolStats audit in CheckInvariants.
func CheckRegistry(c *core.Cluster, s obs.Snapshot) []string {
	var bad []string
	check := func(name, owner string, want uint64) {
		if got := s.Value(name); got != want {
			bad = append(bad, fmt.Sprintf("registry %s = %d, %s says %d", name, got, owner, want))
		}
	}
	var regNews, regFree, regHeld uint64
	for m := 1; m <= c.Machines(); m++ {
		k := c.Kernel(m)
		ks := k.Stats()
		p := fmt.Sprintf("kernel.m%d.", m)
		for _, want := range obs.AppendStruct(nil, p, &ks) {
			check(want.Name, "struct", want.Value)
		}
		check(p+"admin_total", "struct", ks.AdminTotal())
		news, free, held := k.PoolStats()
		check(p+"pool_news", "PoolStats", uint64(news))
		check(p+"pool_free", "PoolStats", uint64(free))
		check(p+"pool_held", "PoolStats", uint64(held))
		regNews += s.Value(p + "pool_news")
		regFree += s.Value(p + "pool_free")
		regHeld += s.Value(p + "pool_held")
	}
	if regNews != regFree+regHeld {
		bad = append(bad, fmt.Sprintf(
			"registry envelope conservation broken: news=%d != free=%d + held=%d",
			regNews, regFree, regHeld))
	}

	ns := c.NetStats()
	for _, want := range obs.AppendStruct(nil, "netw.", &ns) {
		check(want.Name, "netw", want.Value)
	}
	return bad
}
