package sim

import (
	"fmt"
	"testing"
)

// spin is one benchmark event's work: n rounds of xorshift on the caller's
// own state.
func spin(x uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// BenchmarkGroupRound is the calibration of parallelMinEvents: the cost of
// one round at a given density (events per engine per round), inline, on
// goroutines whatever the density, and as Parallel chooses. Every engine
// fires one event per simulated microsecond, so a lookahead of n makes
// rounds of n events per engine; an event costs about 100 ns (a ping-pong's
// kernel slice) or about 1 µs (a spawn or an exit of the open-loop tiers)
// with the engine's own schedule and dispatch. One op is one round; the
// public arms run once as a single RunUntil and once in RunUntil calls of
// 100 rounds, the way the repository's benchmark slices a run. The recorded
// table is in EXPERIMENTS.md ("Parallel runtime").
func BenchmarkGroupRound(b *testing.B) {
	newGroup := func(engines, spins int, perRound Time, parallel bool) *Group {
		g := &Group{Lookahead: perRound, Parallel: parallel}
		for i := 0; i < engines; i++ {
			e := NewEngine(1)
			// Engines share nothing, cache lines included.
			st := &struct {
				x uint64
				_ [120]byte
			}{x: 88172645463325252}
			var tick func()
			tick = func() { st.x = spin(st.x, spins); e.After(1, "tick", tick) }
			e.At(1, "tick", tick)
			g.Engines = append(g.Engines, e)
		}
		g.RunUntil(16 * perRound) // warm the arenas
		return g
	}
	for _, cost := range []struct {
		name     string
		spins    int
		perRound []Time
	}{
		{"100ns", 48, []Time{1, 8, 32, 128, 512, 2048, 8192}},
		{"1us", 430, []Time{32, 64, 128, 512}},
	} {
		for _, engines := range []int{2, 4} {
			for _, perRound := range cost.perRound {
				name := fmt.Sprintf("event=%s/engines=%d/events=%d", cost.name, engines, perRound)
				for _, arm := range []struct {
					name     string
					parallel bool
				}{{"inline", false}, {"adaptive", true}} {
					for _, slice := range []int{0, 100} {
						call := "long"
						if slice > 0 {
							call = fmt.Sprintf("slices=%d", slice)
						}
						b.Run(name+"/"+arm.name+"/"+call, func(b *testing.B) {
							g := newGroup(engines, cost.spins, perRound, arm.parallel)
							now := g.Engines[0].Now()
							b.ResetTimer()
							for left := b.N; left > 0; {
								n := left
								if slice > 0 && slice < n {
									n = slice
								}
								now += Time(n) * perRound
								g.RunUntil(now)
								left -= n
							}
						})
					}
				}
				b.Run(name+"/goroutines/long", func(b *testing.B) {
					g := newGroup(engines, cost.spins, perRound, false)
					now := g.Engines[0].Now()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						now += perRound
						g.run(now, true)
					}
				})
			}
		}
	}
}
