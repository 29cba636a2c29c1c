// Scale tier: events/sec of the sharded runtime under the streaming
// open-loop workload, at 64/256/1000 machines on 1/2/4 parallel shards.
// These are whole-cluster throughput numbers: the same deterministic
// simulation (same seed, bit-identical trace regardless of shard count)
// measured wall-clock.
//
// The headline number is the 64-machine 4-shard-vs-1-shard speedup. It is
// only meaningful on a host with enough cores to actually run the shard
// goroutines concurrently, so the recorded run carries num_cpu and the
// gate's verdict: the >= 3x floor binds only with at least 4 cores, and
// below that the artifact says SKIPPED rather than nothing.
package main

import (
	"fmt"
	"runtime"
	"time"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/workload"
)

type scalePoint struct {
	Machines     int     `json:"machines"`
	Shards       int     `json:"shards"`
	EventsFired  uint64  `json:"events_fired"`
	WallMs       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
}

type scaleRun struct {
	Timestamp string `json:"timestamp,omitempty"`
	// NumCPU qualifies the speedup: on a 1-core host the four shard
	// goroutines serialize and 4-shard/1-shard reads ~1x by construction.
	NumCPU int          `json:"num_cpu"`
	Short  bool         `json:"short,omitempty"`
	Points []scalePoint `json:"points"`
	// Speedup4Shard64M = events/sec at 64 machines with 4 shards divided
	// by the same workload on 1 shard (the acceptance floor is 3x on a
	// >= 4-core host).
	Speedup4Shard64M float64 `json:"speedup_4shard_vs_1shard_64m"`
	// SpeedupGate is the >= 3x floor's verdict on that ratio: PASS, FAIL,
	// or "SKIPPED num_cpu=<n> ..." on a host too small to judge it — so an
	// artifact never reads as a pass the gate did not give. Every run
	// recorded since the field exists carries it.
	SpeedupGate string `json:"speedup_gate,omitempty"`
}

// speedupGate is the floor on a 4-shard-vs-1-shard ratio measured on a host
// with numCPU cores: 3x, binding only with at least 4 cores.
func speedupGate(ratio float64, numCPU int) floorRow {
	r := floorRow{name: "sharded speedup (64m, 4 shards vs 1)", measured: ratio, floor: 3, unit: "%.2fx"}
	if numCPU < 4 {
		r.skip = fmt.Sprintf("num_cpu=%d", numCPU)
	}
	return r
}

// scalePerMachine is the open-loop job count per machine, sized so every
// grid row does comparable total work (64k-100k processes): small clusters
// get proportionally denser arrivals, which also keeps each lookahead
// round busy enough to amortize the inter-shard barrier — the regime the
// parallel runtime is for. 1000 machines x 100 jobs is the 100k-process
// capacity run. -bench-short divides by 5 so CI smoke runs stay quick.
func scalePerMachine(machines int) int {
	per := 64_000 / machines
	if machines >= 1000 {
		per = 100
	}
	if *benchShortFlag {
		per /= 5
	}
	return per
}

// runScalePoint builds a chaos-free sharded cluster (mirroring
// TestShardScale1000: streaming open-loop arrivals plus sparse
// cross-machine chatter so frames cross shard boundaries all run long),
// runs it to quiescence, and returns events/sec.
func runScalePoint(machines, shards int) scalePoint {
	per := scalePerMachine(machines)
	c, err := demosmp.New(demosmp.Options{
		Machines: machines, Seed: 17, Shards: shards, ShardParallel: true,
		TraceCap: 64, // tracing stays on (real configs run with it) but tiny
	})
	die(err)
	d := c.StartOpenLoop(workload.OpenLoop{
		Seed: 3, MeanGap: 120, PerMachine: per, LongFraction: 0.1,
	})
	step := machines / 8
	for m := step; m <= machines; m += step {
		sink, err := c.Spawn(m, kernel.SpawnSpec{Body: &workload.Sink{}})
		die(err)
		_, err = c.Spawn(m-step+1, kernel.SpawnSpec{
			Body:  &workload.Chatter{N: 20, Interval: 1500},
			Links: []link.Link{{Addr: addr.At(sink, addr.MachineID(m))}},
		})
		die(err)
	}
	start := time.Now()
	c.Run()
	wall := time.Since(start)
	if got, want := d.Spawned(), uint64(machines*per); got != want || d.Failed() != 0 {
		die(fmt.Errorf("scale %dm/%dsh: spawned %d/%d jobs (%d failed)",
			machines, shards, got, want, d.Failed()))
	}
	fired := c.TotalFired()
	return scalePoint{
		Machines: machines, Shards: shards, EventsFired: fired,
		WallMs:       float64(wall.Nanoseconds()) / 1e6,
		EventsPerSec: float64(fired) / wall.Seconds(),
	}
}

// bestScalePoint keeps the fastest of reps runs: wall clock has a hard
// floor and noise is one-sided.
func bestScalePoint(machines, shards, reps int) scalePoint {
	best := runScalePoint(machines, shards)
	for r := 1; r < reps; r++ {
		if p := runScalePoint(machines, shards); p.EventsPerSec > best.EventsPerSec {
			best = p
		}
	}
	return best
}

// scaleRow is one machine count of the grid and how many runs the fastest
// is kept of.
type scaleRow struct{ machines, reps int }

// scaleGrid is the recorded grid. The gated 64-machine row, first, gets an
// extra rep; the 1000-machine rows run once — at 100k processes each, the
// run is long enough to be its own noise floor.
var scaleGrid = []scaleRow{{64, 3}, {256, 2}, {1000, 1}}

// measureScale runs the given rows of scaleGrid on 1/2/4 shards.
func measureScale(rows []scaleRow) scaleRun {
	r := scaleRun{NumCPU: runtime.NumCPU(), Short: *benchShortFlag}
	var base64, par64 float64
	for _, row := range rows {
		for _, shards := range []int{1, 2, 4} {
			p := bestScalePoint(row.machines, shards, row.reps)
			r.Points = append(r.Points, p)
			if row.machines == 64 && shards == 1 {
				base64 = p.EventsPerSec
			}
			if row.machines == 64 && shards == 4 {
				par64 = p.EventsPerSec
			}
		}
	}
	if base64 > 0 {
		r.Speedup4Shard64M = par64 / base64
	}
	r.SpeedupGate, _ = speedupGate(r.Speedup4Shard64M, r.NumCPU).verdict()
	return r
}

func printScale(r scaleRun) {
	fmt.Printf("\nscale tier (num_cpu=%d, short=%v)\n\n", r.NumCPU, r.Short)
	fmt.Println("| machines | shards | events | wall ms | events/sec |")
	fmt.Println("|---------:|-------:|-------:|--------:|-----------:|")
	for _, p := range r.Points {
		fmt.Printf("| %d | %d | %d | %.1f | %.0f |\n",
			p.Machines, p.Shards, p.EventsFired, p.WallMs, p.EventsPerSec)
	}
	fmt.Printf("\n64-machine speedup, 4 shards vs 1: %s\n", r.SpeedupGate)
}
