// Chaos tier: events/sec of the sharded runtime with the fault plane live.
// The scale tier (scale.go) measures the chaos-free parallel runtime; this
// tier answers the complementary question — what the shard-local fault
// plane and the machine-anchored ARQ cost. Both arms run the identical
// 64-machine 4-shard parallel soak under a full chaos schedule (kills,
// partitions, bursts, duplicates, delays, checkpoint pulses); the lossy arm
// additionally routes every frame through the ARQ (per-attempt clones,
// retransmit timers, ack frames). The headline number is the lossy/lossless
// events-per-second ratio, gated by -check-regression with an absolute
// floor (see tiers.floors): the fault plane must never cost more than 4x
// throughput.
package main

import (
	"fmt"
	"runtime"
	"time"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/chaos"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/netw"
	"demosmp/internal/workload"
)

type chaosPoint struct {
	Machines     int     `json:"machines"`
	Shards       int     `json:"shards"`
	Lossy        bool    `json:"lossy"`
	EventsFired  uint64  `json:"events_fired"`
	Kills        int     `json:"kills"`
	Retransmits  uint64  `json:"retransmits"`
	WallMs       float64 `json:"wall_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
}

type chaosRun struct {
	Timestamp string       `json:"timestamp,omitempty"`
	NumCPU    int          `json:"num_cpu"`
	Short     bool         `json:"short,omitempty"`
	Points    []chaosPoint `json:"points"`
	// OverheadRatio = lossy events/sec divided by lossless events/sec on
	// the same 4-shard parallel chaos soak. Both arms pay the injector and
	// the canonical arrival calendars; the ratio isolates the ARQ (clones,
	// retransmit timers, acks, dedup windows). The regression floor is
	// 0.25 — ARQ may cost at most 4x.
	OverheadRatio float64 `json:"overhead_ratio_lossy_vs_lossless"`
}

// runChaosPoint builds a 64-machine sharded cluster under the full fault
// schedule (mirroring TestChaosSoakSharded's injector config), drives the
// open-loop streaming workload plus sparse cross-machine chatter so frames
// cross shard boundaries all run long, and returns events/sec.
func runChaosPoint(machines, shards int, lossy bool) chaosPoint {
	per := 12_800 / machines
	if *benchShortFlag {
		per /= 5
	}
	ncfg := netw.Config{}
	if lossy {
		ncfg = netw.Config{LossRate: 0.04, RetransTimeout: 3000, MaxRetries: 200}
	}
	c, err := demosmp.New(demosmp.Options{
		Machines: machines, Seed: 17, Net: ncfg,
		Shards: shards, ShardParallel: true,
		TraceCap: 64,
	})
	die(err)
	// Spawn totals are NOT asserted here, unlike the scale tier: the
	// injector crashes machines mid-run, so some open-loop arrivals land on
	// down kernels by design.
	c.StartOpenLoop(workload.OpenLoop{
		Seed: 3, MeanGap: 120, PerMachine: per, LongFraction: 0.1,
	})
	step := machines / 8
	for m := step; m <= machines; m += step {
		sink, err := c.Spawn(m, kernel.SpawnSpec{Body: &workload.Sink{}})
		die(err)
		_, err = c.Spawn(m-step+1, kernel.SpawnSpec{
			Body:  &workload.Chatter{N: 40, Interval: 1200},
			Links: []link.Link{{Addr: addr.At(sink, addr.MachineID(m))}},
		})
		die(err)
	}
	// A small migrating fleet gives the kill rotation its hook firings:
	// machine-anchored probes (the runSoak pattern from the chaos package's
	// soak tests) bounce movers around machines 1..span, so migrations run
	// concurrently with the streaming workload and crashes land at real
	// kill-points.
	const span = 8
	movers := make([]addr.ProcessID, 0, 4)
	for i := 0; i < 4; i++ {
		pid, err := c.Spawn(1+i%span, kernel.SpawnSpec{Body: &workload.Null{}})
		die(err)
		movers = append(movers, pid)
	}
	for i := 0; i < 80; i++ {
		at := demosmp.Time(4_000 + i*7_000)
		victim := movers[i%len(movers)]
		dest := 1 + (i*5)%span
		for m := 1; m <= span; m++ {
			m := m
			c.EngineOf(m).At(at, "bench:migrate", func() {
				if m == dest {
					return
				}
				k := c.Kernel(m)
				if k.Crashed() {
					return
				}
				info, ok := k.Process(victim)
				if !ok || info.State == kernel.StateForwarder {
					return
				}
				k.RequestMigrationOf(addr.At(victim, addr.MachineID(m)), addr.MachineID(dest))
			})
		}
	}
	inj := chaos.New(c, chaos.Config{
		Seed:            24,
		MaxKills:        8,
		RestartAfter:    60_000,
		KillAfter:       80_000,
		KillEvery:       60_000,
		PartitionEvery:  60_000,
		PartitionFor:    40_000,
		BurstEvery:      90_000,
		BurstFor:        30_000,
		BurstRate:       0.6,
		DupEvery:        45_000,
		DelayEvery:      35_000,
		DelayExtra:      2_000,
		CheckpointEvery: 30_000,
	})

	start := time.Now()
	c.RunFor(600_000)
	inj.Stop()
	c.Run()
	wall := time.Since(start)

	fired := c.TotalFired()
	return chaosPoint{
		Machines: machines, Shards: shards, Lossy: lossy,
		EventsFired:  fired,
		Kills:        inj.Kills(),
		Retransmits:  c.NetStats().Retransmits,
		WallMs:       float64(wall.Nanoseconds()) / 1e6,
		EventsPerSec: float64(fired) / wall.Seconds(),
	}
}

// bestChaosPoint keeps the fastest of reps runs (same one-sided-noise
// argument as bestScalePoint).
func bestChaosPoint(machines, shards int, lossy bool, reps int) chaosPoint {
	best := runChaosPoint(machines, shards, lossy)
	for r := 1; r < reps; r++ {
		if p := runChaosPoint(machines, shards, lossy); p.EventsPerSec > best.EventsPerSec {
			best = p
		}
	}
	return best
}

// measureChaos runs both arms of the 64-machine 4-shard chaos soak.
func measureChaos() chaosRun {
	r := chaosRun{NumCPU: runtime.NumCPU(), Short: *benchShortFlag}
	lossless := bestChaosPoint(64, 4, false, 3)
	lossyPt := bestChaosPoint(64, 4, true, 3)
	r.Points = append(r.Points, lossless, lossyPt)
	if lossless.EventsPerSec > 0 {
		r.OverheadRatio = lossyPt.EventsPerSec / lossless.EventsPerSec
	}
	return r
}

func printChaos(r chaosRun) {
	fmt.Printf("\nchaos tier (num_cpu=%d, short=%v)\n\n", r.NumCPU, r.Short)
	fmt.Println("| machines | shards | lossy | events | kills | retrans | wall ms | events/sec |")
	fmt.Println("|---------:|-------:|:------|-------:|------:|--------:|--------:|-----------:|")
	for _, p := range r.Points {
		fmt.Printf("| %d | %d | %v | %d | %d | %d | %.1f | %.0f |\n",
			p.Machines, p.Shards, p.Lossy, p.EventsFired, p.Kills, p.Retransmits,
			p.WallMs, p.EventsPerSec)
	}
	fmt.Printf("\nfault-plane overhead, lossy vs lossless: %.2fx events/sec\n", r.OverheadRatio)
}
