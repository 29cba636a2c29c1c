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
// that cross shards during the round land in outboxes owned by the sending
// shard; the barrier between rounds drains them into the receiving shard's
// arrival calendar (as gate events strictly beyond the old deadline) before the
// next round's horizon is computed. Same seed + same workload therefore
// yields bit-identical per-machine event orders for ANY shard count,
// whether a round runs inline or on goroutines: engines never share state
// inside a round, and where the receiver's calendar files a frame depends
// on the frame alone, not on when it was handed over, so goroutine
// interleaving cannot leak into simulation order.
package sim

import (
	"runtime"
	"sync"
)

// parallelMinEvents is the density below which a round runs inline even
// when Parallel is set: the events the previous round fired, summed over
// the engines. BenchmarkGroupRound on the 2-core recording host (table in
// EXPERIMENTS.md, "Parallel runtime") puts the cost of starting and joining
// the goroutines at 1-2 µs a round and the cost of getting the second
// core's thread to run well above it: goroutine rounds lose at every
// density up to about 100 µs of work a round. With the ~1 µs events of the
// workloads that ask for parallel shards (open-loop scale, chaos soaks and
// the tournament: spawn, exit, migration) they break even at best at 64
// events over the group and win 1.1-1.3x at 128, so the constant sits
// there, just past the break-even: the 64-machine open-loop scale run
// (BenchmarkOpenLoopScale/64m in internal/core), whose
// rounds fire 436 events on average, keeps 700 of its 735 rounds on
// goroutines and its parent's events/sec (at 256 only 497 did, and it read
// 3-7 % lower). With ~100 ns events (a ping-pong's kernel slice) the
// break-even is nearer 1000 on four engines and was not reached on two:
// such a workload, if dense enough to cross the constant, loses up to 1.5x
// on this host class. None in the repository is (pingpong-par fires 25
// events a round).
const parallelMinEvents = 128

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
	// execution. The cluster drains its shard outboxes into the engines
	// (as gate events) and flushes the merged trace stream here.
	Barrier func()

	// Parallel allows a round's engines to run on their own goroutines; the
	// group does so only for rounds dense enough to repay the join (see
	// round). Purely a wall-clock choice: results are identical either way.
	Parallel bool

	// Rounds counts completed synchronization rounds, ParallelRounds those
	// of them that ran on goroutines (observability).
	Rounds         uint64
	ParallelRounds uint64

	prevFired uint64 // events the previous round fired, over all engines
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

// fired sums the events every engine has executed so far.
func (g *Group) fired() uint64 {
	var n uint64
	for _, e := range g.Engines {
		n += e.fired
	}
	return n
}

// round runs every engine up to deadline: on goroutines when Parallel is
// set, the previous round fired at least parallelMinEvents events (the next
// round of a simulation is about as dense as the last) and the host can run
// two goroutines at once; inline on the caller otherwise. The event count
// is deterministic, so the choice is too, up to GOMAXPROCS — and it cannot
// show in the results.
func (g *Group) round(deadline Time) {
	before := g.fired()
	g.run(deadline, g.Parallel && len(g.Engines) > 1 &&
		g.prevFired >= parallelMinEvents && runtime.GOMAXPROCS(0) >= 2)
	g.prevFired = g.fired() - before
	g.Rounds++
}

// run is one round's execution, on one goroutine per engine or inline.
// Engines share no mutable state during a round (a cross-shard frame goes
// into an outbox only its sending shard writes), so the only
// synchronization needed is the join. Each engine's clock stays at its own
// last fired event; RunUntilIdle and RunUntil set the common clock when
// they return.
func (g *Group) run(deadline Time, goroutines bool) {
	if !goroutines {
		for _, e := range g.Engines {
			e.runTo(deadline)
		}
		return
	}
	var wg sync.WaitGroup
	for _, e := range g.Engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			e.runTo(deadline)
		}(e)
	}
	wg.Wait()
	g.ParallelRounds++
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
