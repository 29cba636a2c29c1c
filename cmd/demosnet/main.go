// Command demosnet boots a DEMOS/MP cluster, runs a mixed workload with a
// mid-run migration, and (optionally) streams the protocol trace — a quick
// way to watch the 8 migration steps, forwarding, and link updates happen.
//
// Usage:
//
//	demosnet [-machines 3] [-trace] [-fs] [-migrate]
//	         [-obs-json snapshot.json] [-trace-out timeline.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/obs"
)

var (
	machines = flag.Int("machines", 3, "number of processors")
	doTrace  = flag.Bool("trace", false, "stream the protocol trace to stderr")
	withFS   = flag.Bool("fs", true, "boot the four-process file system and run clients")
	migrate  = flag.Bool("migrate", true, "migrate a worker and the file server mid-run")
	seed     = flag.Int64("seed", 1, "simulation seed")
	obsJSON  = flag.String("obs-json", "", "write the post-run metrics registry snapshot (JSON) to this path")
	traceOut = flag.String("trace-out", "", "write a post-run Chrome trace_event timeline JSON to this path")
)

func main() {
	flag.Parse()
	opts := demosmp.Options{
		Machines:    *machines,
		Seed:        *seed,
		Switchboard: true,
		PM:          true,
		MemSched:    true,
		FS:          *withFS,
	}
	if *doTrace {
		opts.TraceSink = os.Stderr
	}
	if *traceOut != "" && opts.TraceCap == 0 {
		opts.TraceCap = 8192
	}
	c, err := demosmp.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "demosnet:", err)
		os.Exit(1)
	}
	var sampler *obs.EngineSampler
	if *traceOut != "" {
		sampler = obs.SampleEngine(c.Engine(), 2000)
	}

	fmt.Printf("booted %d machines; system processes: switchboard=%v pm=%v\n",
		*machines, c.SwitchboardPID, c.PMPID)

	// A CPU-bound worker, an echo pair, and file system clients.
	worker, _ := c.SpawnProgram(1, demosmp.CPUBound(500000))
	server, _ := c.Spawn(1, kernel.SpawnSpec{Program: demosmp.EchoServer(30)})
	client, _ := c.Spawn(min(2, *machines), kernel.SpawnSpec{
		Program: demosmp.RequestClient(30),
		Links:   []link.Link{{Addr: addr.At(server, 1)}},
	})
	var fsClients []demosmp.ProcessID
	if *withFS {
		for i := 0; i < 3; i++ {
			pid, err := c.SpawnFSClient(min(2, *machines), fmt.Sprintf("demo%d", i), 6, 600)
			if err == nil {
				fsClients = append(fsClients, pid)
			}
		}
	}

	if *migrate && *machines >= 2 {
		c.RunFor(50000)
		dest := *machines
		fmt.Printf("t=%v: migrating worker %v and echo server %v to m%d\n",
			c.Now(), worker, server, dest)
		c.Migrate(worker, dest)
		c.Migrate(server, dest)
		if *withFS {
			c.Migrate(c.FilePID, dest)
		}
	}
	c.Run()

	fmt.Printf("\nfinished at t=%v\n", c.Now())
	report := func(name string, pid demosmp.ProcessID, want int32) {
		e, m, ok := c.ExitOf(pid)
		status := "LOST"
		if ok {
			if e.Code == want {
				status = "ok"
			} else {
				status = fmt.Sprintf("WRONG (%d != %d)", e.Code, want)
			}
		}
		fmt.Printf("  %-12s %v finished on %v: %s\n", name, pid, m, status)
	}
	report("worker", worker, demosmp.CPUBoundResult(500000))
	report("client", client, 30)
	for i, pid := range fsClients {
		report(fmt.Sprintf("fs-client%d", i), pid, 6)
	}

	s := c.Stats()
	fmt.Printf("\nmigrations=%d adminMsgs=%d forwards=%d linkUpdates=%d netFrames=%d netBytes=%d\n",
		s.TotalMigrations(), s.TotalAdmin(), s.TotalForwarded(), s.TotalLinkUpdates(),
		s.Net.Frames, s.Net.Bytes)
	for _, r := range c.Reports() {
		fmt.Printf("  migration %v m%d->m%d: %d B state in %d packets, %d admin msgs, latency %v\n",
			r.PID, uint16(r.From), uint16(r.To), r.BytesMoved(), r.DataPackets, r.AdminMsgs, r.FreezeMicros())
	}

	if *obsJSON != "" {
		f, err := os.Create(*obsJSON)
		fail(err)
		fail(c.ObsSnapshot().WriteJSON(f))
		fail(f.Close())
		fmt.Printf("metrics snapshot: %s\n", *obsJSON)
	}
	if *traceOut != "" {
		var samples []obs.CounterSample
		if sampler != nil {
			samples = sampler.Samples()
		}
		tl := obs.BuildTimeline(c.TraceRecords(), c.Ledger(), samples)
		f, err := os.Create(*traceOut)
		fail(err)
		fail(tl.WriteJSON(f))
		fail(f.Close())
		fmt.Printf("timeline: %s (open in chrome://tracing)\n", *traceOut)
		if n := c.TraceOverwritten(); n > 0 {
			fmt.Printf("timeline: the trace rings overwrote their %d oldest records; raise TraceCap to keep them\n", n)
		}
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "demosnet:", err)
		os.Exit(1)
	}
}
