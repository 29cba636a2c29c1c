// Conservative-lookahead coordinator for a group of shard-local engines
// (classic Chandy–Misra/bulk-synchronous rounds).
//
// Machines interact only through network frames whose transit time is at
// least the minimum pair latency W (>= 1 simulated microsecond). That gives
// every shard a safe horizon: if the earliest pending event anywhere in the
// group is at nextT, no frame sent during [nextT, nextT+W-1] can arrive at
// or before nextT+W-1 (a frame sent at s >= nextT arrives at >= s+W >=
// nextT+W). So every engine may run freely up to the round deadline
//
//	deadline = nextT + W - 1
//
// without ever needing input from another shard inside the round. Frames
// that cross shards during the round land in per-shard mailboxes; the
// barrier between rounds drains them into the receiving shard's pending
// heap (as gate events strictly beyond the old deadline) before the next
// round's horizon is computed. Same seed + same workload therefore yields
// bit-identical per-machine event orders for ANY shard count, including the
// parallel execution mode: engines never share state inside a round, and
// mailbox contents are re-ordered canonically by the receiver's pending
// heap, so goroutine interleaving cannot leak into simulation order.
package sim

import "sync"

// Group coordinates N engines under conservative lookahead. The zero value
// is not usable; fill in Engines and Lookahead.
type Group struct {
	// Engines are the shard-local engines, indexed by shard id.
	Engines []*Engine

	// Lookahead is W, the minimum cross-machine frame latency in simulated
	// microseconds. Must be >= 1 (validated by the cluster constructor).
	Lookahead Time

	// Barrier, when set, runs between rounds — before the next round's
	// horizon is computed and once more after the last round — always on
	// the coordinating goroutine, so it needs no locking against engine
	// execution. The cluster drains its shard mailboxes into the engines
	// (as gate events) and flushes the merged trace stream here.
	Barrier func()

	// Parallel runs each round's engines on their own goroutines. Purely a
	// wall-clock choice: results are identical either way.
	Parallel bool

	// Rounds counts completed synchronization rounds (observability).
	Rounds uint64
}

func (g *Group) barrier() {
	if g.Barrier != nil {
		g.Barrier()
	}
}

// nextAt returns the earliest pending event time across all engines.
func (g *Group) nextAt() (Time, bool) {
	var min Time
	found := false
	for _, e := range g.Engines {
		if at, ok := e.NextAt(); ok && (!found || at < min) {
			min, found = at, ok
		}
	}
	return min, found
}

// strongPending reports whether any engine still holds a non-weak event.
func (g *Group) strongPending() bool {
	for _, e := range g.Engines {
		if e.StrongPending() > 0 {
			return true
		}
	}
	return false
}

// round runs every engine up to deadline, concurrently when Parallel is
// set. Engines share no mutable state during a round (cross-shard frames
// go through locked mailboxes owned by the cluster), so the only
// synchronization needed is the join. Each engine's clock stays at its own
// last fired event; RunUntilIdle and RunUntil set the common clock when
// they return.
func (g *Group) round(deadline Time) {
	if g.Parallel && len(g.Engines) > 1 {
		var wg sync.WaitGroup
		for _, e := range g.Engines {
			wg.Add(1)
			go func(e *Engine) {
				defer wg.Done()
				e.runTo(deadline)
			}(e)
		}
		wg.Wait()
	} else {
		for _, e := range g.Engines {
			e.runTo(deadline)
		}
	}
	g.Rounds++
}

// RunUntilIdle runs rounds until, after a barrier, no engine holds a strong
// event — the multi-engine analogue of Engine.Run. It sets every engine's
// clock to the timestamp of the last event fired anywhere in the group and
// returns it, so the clock after a run to quiescence does not depend on how
// the machines are split into shards.
func (g *Group) RunUntilIdle() Time {
	for {
		g.barrier()
		if !g.strongPending() {
			break
		}
		nextT, _ := g.nextAt()
		g.round(nextT + g.Lookahead - 1)
	}
	var last Time
	for _, e := range g.Engines {
		if e.now > last {
			last = e.now
		}
	}
	g.setClocks(last)
	return last
}

// RunUntil fires all events with timestamps <= deadline (weak ones
// included, matching Engine.RunUntil) and then sets every engine's clock to
// the deadline.
func (g *Group) RunUntil(deadline Time) {
	for {
		g.barrier()
		nextT, ok := g.nextAt()
		if !ok || nextT > deadline {
			break
		}
		end := nextT + g.Lookahead - 1
		if end > deadline {
			end = deadline
		}
		g.round(end)
	}
	g.setClocks(deadline)
}

// setClocks moves every engine's clock forward to t. Callers pass a time no
// pending event precedes.
func (g *Group) setClocks(t Time) {
	for _, e := range g.Engines {
		if e.now < t {
			e.now = t
		}
	}
}
