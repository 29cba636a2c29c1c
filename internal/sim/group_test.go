package sim

import (
	"fmt"
	"runtime"
	"testing"

	"demosmp/internal/simtest"
)

// TestGateOrdering pins the gate contract: at an equal timestamp, gate
// events fire before every normal event, regardless of scheduling order;
// gates among themselves and normals among themselves keep FIFO order.
func TestGateOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []string
	rec := func(s string) func() { return func() { got = append(got, s) } }
	e.At(10, "n1", rec("n1"))
	e.AtGate(10, "g1", rec("g1"))
	e.At(10, "n2", rec("n2"))
	e.AtGate(10, "g2", rec("g2"))
	e.At(5, "early", rec("early"))
	e.Run()
	want := "[early g1 g2 n1 n2]"
	if fmt.Sprint(got) != want {
		t.Fatalf("order %v, want %s", got, want)
	}
}

// TestGateFreeRunsUnchanged proves the gate bit does not disturb plain
// scheduling: an engine that never uses AtGate fires events in the same
// (time, insertion) order as before the gate key existed.
func TestGateFreeRunsUnchanged(t *testing.T) {
	e := NewEngine(7)
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		// Mix of colliding and distinct timestamps.
		e.At(Time(100+(i%7)*3), "ev", func() { got = append(got, i) })
	}
	e.Run()
	// Insertion order must be preserved within each timestamp.
	last := map[Time]int{}
	for idx, i := range got {
		at := Time(100 + (i%7)*3)
		if prev, ok := last[at]; ok && prev > i {
			t.Fatalf("insertion order broken at index %d: %v", idx, got)
		}
		last[at] = i
	}
}

// TestGroupMatchesSingleEngine runs the same two-machine ping-pong once on
// one engine and once split across a two-engine group, and requires the
// same per-machine event sequence. The "network" is a 5µs message delay;
// cross-engine sends go through a mailbox drained at barriers, delivered
// via gate events — exactly the cluster's transport shape.
func TestGroupMatchesSingleEngine(t *testing.T) {
	type send struct {
		to int
		at Time
	}
	const latency = 5
	run := func(shards int) []string {
		engines := make([]*Engine, shards)
		for i := range engines {
			engines[i] = NewEngine(3)
		}
		engOf := func(machine int) *Engine { return engines[machine%shards] }
		var log []string
		var boxes [][]send // per shard
		boxes = make([][]send, shards)
		var post func(from, to int, at Time)
		deliver := func(to int, at Time) {
			engOf(to).AtGate(at, "pump", func() {
				log = append(log, fmt.Sprintf("m%d@%d", to, at))
				if at < 100 {
					post(to, 1-to, at+latency)
				}
			})
		}
		post = func(from, to int, at Time) {
			if engOf(to) == engOf(from) {
				deliver(to, at)
				return
			}
			boxes[to%shards] = append(boxes[to%shards], send{to: to, at: at})
		}
		g := &Group{
			Engines:   engines,
			Lookahead: latency,
			Barrier: func() {
				for s := range boxes {
					q := boxes[s]
					boxes[s] = nil
					for _, f := range q {
						deliver(f.to, f.at)
					}
				}
			},
		}
		post(1, 0, 10)
		g.RunUntilIdle()
		return log
	}
	one, two := run(1), run(2)
	if fmt.Sprint(one) != fmt.Sprint(two) {
		t.Fatalf("group diverged from single engine:\n1 shard: %v\n2 shards: %v", one, two)
	}
	if len(one) == 0 {
		t.Fatal("ping-pong never ran")
	}
}

// TestGroupRunUntil checks the deadline semantics: events at or before the
// deadline fire, later ones stay pending, and every engine's clock — idle
// or with work still pending — reads the deadline afterwards (the common
// epoch RunFor depends on).
func TestGroupRunUntil(t *testing.T) {
	a, b := NewEngine(1), NewEngine(1)
	fired := 0
	a.At(40, "in", func() { fired++ })
	b.At(90, "out", func() { fired++ })
	g := &Group{Engines: []*Engine{a, b}, Lookahead: 5}
	g.RunUntil(50)
	if fired != 1 {
		t.Fatalf("fired %d events by t=50, want 1", fired)
	}
	if a.Now() != 50 || b.Now() != 50 {
		t.Fatalf("engine clocks %d / %d after RunUntil(50), want both 50", a.Now(), b.Now())
	}
	g.RunUntil(100)
	if fired != 2 {
		t.Fatalf("fired %d events by t=100, want 2", fired)
	}
}

// TestGroupRunUntilIdleClock pins the clock rule for a run to quiescence:
// RunUntilIdle returns the timestamp of the last event fired — not the last
// round's deadline — and leaves every engine's clock there, however the
// same events are split across engines.
func TestGroupRunUntilIdleClock(t *testing.T) {
	for _, shards := range []int{1, 2} {
		engines := make([]*Engine, shards)
		for i := range engines {
			engines[i] = NewEngine(1)
		}
		engines[0].At(40, "early", func() {})
		engines[shards-1].At(1234, "last", func() {})
		g := &Group{Engines: engines, Lookahead: 500}
		if end := g.RunUntilIdle(); end != 1234 {
			t.Fatalf("%d engines: RunUntilIdle returned %d, want 1234 (the last event)", shards, end)
		}
		for i, e := range engines {
			if e.Now() != 1234 {
				t.Fatalf("%d engines: engine %d clock %d after RunUntilIdle, want 1234", shards, i, e.Now())
			}
		}
	}
}

// tickRun drives four engines under a lookahead of 4 until span: one sparse
// ticker per engine throughout (about one event per engine per round) and,
// inside every burst window, 128 more per engine (several hundred events per
// round over the group, past parallelMinEvents). It returns every engine's
// firing log and, per round, whether the round ran on goroutines.
func tickRun(parallel bool, span Time, bursts ...[2]Time) (log string, onGoroutines []bool) {
	const shards = 4
	engines := make([]*Engine, shards)
	logs := make([][]Time, shards)
	for i := range engines {
		engines[i] = NewEngine(11)
		i := i
		var tick func(id, at, end Time)
		tick = func(id, at, end Time) {
			engines[i].At(at, "tick", func() {
				logs[i] = append(logs[i], at*1000+id)
				if next := at + Time(3+i); next < end {
					tick(id, next, end)
				}
			})
		}
		tick(0, Time(1+i), span)
		for _, b := range bursts {
			for id := Time(1); id <= 128; id++ {
				tick(id, b[0]+id%3, b[1])
			}
		}
	}
	g := &Group{Engines: engines, Lookahead: 4, Parallel: parallel}
	var seen uint64
	g.Barrier = func() {
		if g.Rounds > 0 {
			onGoroutines = append(onGoroutines, g.ParallelRounds > seen)
			seen = g.ParallelRounds
		}
	}
	g.RunUntilIdle()
	if len(onGoroutines) != int(g.Rounds) {
		panic("tickRun: a round went unobserved")
	}
	return fmt.Sprint(logs), onGoroutines
}

// count returns how many rounds ran on goroutines.
func count(onGoroutines []bool) (n int) {
	for _, par := range onGoroutines {
		if par {
			n++
		}
	}
	return n
}

// TestGroupParallelIdentical runs dense rounds sequentially and with
// Parallel set, and requires identical logs per engine — goroutine
// scheduling must not leak into simulation order — and that the dense
// rounds did run on goroutines, so the comparison is not inline against
// inline.
func TestGroupParallelIdentical(t *testing.T) {
	simtest.TwoProcs(t)
	seq, inline := tickRun(false, 200, [2]Time{1, 200})
	par, rounds := tickRun(true, 200, [2]Time{1, 200})
	if seq != par {
		t.Fatalf("parallel rounds diverged:\nseq: %.200s\npar: %.200s", seq, par)
	}
	if n := count(inline); n != 0 {
		t.Fatalf("Parallel unset: %d rounds ran on goroutines", n)
	}
	if n := count(rounds); n < len(rounds)/2 {
		t.Fatalf("only %d of %d dense rounds ran on goroutines", n, len(rounds))
	}
}

// TestGroupSparseRoundsInline is the mirror case: rounds of a handful of
// events run inline even with Parallel set, with the same logs.
func TestGroupSparseRoundsInline(t *testing.T) {
	simtest.TwoProcs(t)
	seq, _ := tickRun(false, 200)
	par, rounds := tickRun(true, 200)
	if seq != par {
		t.Fatalf("Parallel changed a sparse run:\nseq: %.200s\npar: %.200s", seq, par)
	}
	if n := count(rounds); n != 0 || len(rounds) < 20 {
		t.Fatalf("%d of %d sparse rounds ran on goroutines, want none of at least 20", n, len(rounds))
	}
}

// TestGroupModeFlip runs dense, then sparse, then dense rounds inside one
// RunUntilIdle: the group must move to goroutines, back inline and to
// goroutines again, and the logs must equal a run with Parallel unset.
func TestGroupModeFlip(t *testing.T) {
	simtest.TwoProcs(t)
	bursts := [][2]Time{{1, 100}, {400, 500}}
	seq, _ := tickRun(false, 600, bursts...)
	par, rounds := tickRun(true, 600, bursts...)
	if seq != par {
		t.Fatalf("mode flips changed the run:\nseq: %.200s\npar: %.200s", seq, par)
	}
	var flips int
	for i := 1; i < len(rounds); i++ {
		if rounds[i] != rounds[i-1] {
			flips++
		}
	}
	// inline (first round) -> goroutines -> inline -> goroutines -> inline
	if flips != 4 {
		t.Fatalf("mode changed %d times over %d rounds (%d on goroutines), want 4", flips, len(rounds), count(rounds))
	}
}

// TestGroupOneProcInline pins the second half of the rule: with one P there
// is nothing to run a second goroutine on, so even dense rounds run inline.
func TestGroupOneProcInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, _ := tickRun(false, 200, [2]Time{1, 200})
	par, rounds := tickRun(true, 200, [2]Time{1, 200})
	if seq != par {
		t.Fatal("Parallel changed the run under GOMAXPROCS(1)")
	}
	if n := count(rounds); n != 0 {
		t.Fatalf("GOMAXPROCS(1): %d rounds ran on goroutines", n)
	}
}
