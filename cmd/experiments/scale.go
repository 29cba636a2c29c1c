// Scale tier: events/sec of the sharded runtime under the streaming
// open-loop workload, at 64/256/1000 machines on 1/2/4 parallel shards.
// These are whole-cluster throughput numbers: the same deterministic
// simulation (same seed, bit-identical trace regardless of shard count)
// measured wall-clock.
//
// The headline number is the 64-machine speedup of parallel shards over one
// shard. What it can be depends on the cores the shard goroutines have, so
// the recorded run carries num_cpu and the gate judges the floor that the
// host can meet: >= 3x for 4 shards with at least 4 cores, and below that
// "not slower than one shard" for 2 shards — a verdict on every host, never
// a skip.
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
	// GateSpeedup = events/sec at 64 machines on gateShards(NumCPU) shards
	// divided by the same workload on 1 shard: the ratio the floor judges.
	GateSpeedup float64 `json:"gate_speedup_vs_1shard_64m"`
	// SpeedupGate is the floor's verdict on GateSpeedup, PASS or FAIL with
	// both numbers. (Runs recorded before PR 18 carry the 4-shard ratio as
	// speedup_4shard_vs_1shard_64m and read "SKIPPED num_cpu=<n>" below 4
	// cores.)
	SpeedupGate string `json:"speedup_gate,omitempty"`
}

// gateShards is the shard count the speedup floor judges on a host with
// numCPU cores: 4 where four shards can run at once, 2 otherwise.
func gateShards(numCPU int) int {
	if numCPU >= 4 {
		return 4
	}
	return 2
}

// notSlowerFloor is the floor below 4 cores: two parallel shards must not
// be slower than one, which the adaptive rounds of sim.Group promise on any
// host. How far below 1.0 it sits is the scatter of the row, set from
// alternated readings of this gate on this code and on its parent
// (EXPERIMENTS.md, "A floor that fires at the core count present"): on the
// 2-core recording host both read 1.07-1.11 in the median, and both dip to
// 0.71-0.81 in one run of twenty or so, when something else has the host.
// What the floor catches is a runtime that loses to itself the way
// pingpong-par did before PR 18, at 0.6x.
const notSlowerFloor = 0.7

// speedupGate is the floor on the 64-machine events/sec of
// gateShards(numCPU) parallel shards over one shard: 3x with at least 4
// cores, notSlowerFloor below.
func speedupGate(ratio float64, numCPU int) floorRow {
	r := floorRow{
		name:     fmt.Sprintf("sharded speedup (64m, %d shards vs 1)", gateShards(numCPU)),
		measured: ratio, floor: 3, unit: "%.2fx",
	}
	if numCPU < 4 {
		r.floor = notSlowerFloor
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
	var base64, gate64 float64
	for _, row := range rows {
		for _, shards := range []int{1, 2, 4} {
			p := bestScalePoint(row.machines, shards, row.reps)
			r.Points = append(r.Points, p)
			if row.machines == 64 && shards == 1 {
				base64 = p.EventsPerSec
			}
			if row.machines == 64 && shards == gateShards(r.NumCPU) {
				gate64 = p.EventsPerSec
			}
		}
	}
	if base64 > 0 {
		r.GateSpeedup = gate64 / base64
	}
	r.SpeedupGate, _ = speedupGate(r.GateSpeedup, r.NumCPU).verdict()
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
	fmt.Printf("\n64-machine speedup, %d shards vs 1: %s\n", gateShards(r.NumCPU), r.SpeedupGate)
}
