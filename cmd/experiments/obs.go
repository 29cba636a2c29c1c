package main

// The obs export scenario: one representative run — a migration under a
// live request/reply conversation plus a forwarded stale send — exported
// through the observability plane. -obs-json writes the metrics snapshot;
// -trace-out writes a Chrome trace_event timeline (load it at
// chrome://tracing or https://ui.perfetto.dev).

import (
	"fmt"
	"os"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/obs"
	"demosmp/internal/workload"
)

// obsExport drives the scenario and writes whichever exports were asked
// for. Engine counter sampling rides the OnAdvance span hook, so it can
// stay on unconditionally here: this path never feeds the golden trace or
// an allocation gate.
func obsExport(snapPath, tracePath string) {
	c := cluster(demosmp.Options{Machines: 3, TraceCap: 8192})
	sampler := obs.SampleEngine(c.Engine(), 2000)

	server, err := c.Spawn(1, kernel.SpawnSpec{Program: workload.EchoServer(80)})
	die(err)
	_, err = c.Spawn(3, kernel.SpawnSpec{
		Program: workload.RequestClient(80),
		Links:   []link.Link{{Addr: addr.At(server, 1)}},
	})
	die(err)
	sink, err := c.Spawn(3, kernel.SpawnSpec{Body: &workload.Sink{}})
	die(err)

	c.RunFor(8_000)
	die(c.Migrate(server, 2))
	c.Run()
	// One deliberately stale send exercises the forward + link-update path.
	c.Kernel(3).GiveMessageTo(addr.At(server, 1), addr.At(sink, 3), []byte("stale"))
	c.Run()

	if snapPath != "" {
		f, err := os.Create(snapPath)
		die(err)
		die(c.ObsSnapshot().WriteJSON(f))
		die(f.Close())
		fmt.Printf("wrote metrics snapshot to %s\n", snapPath)
	}
	if tracePath != "" {
		tl := obs.BuildTimeline(c.TraceRecords(), c.Ledger(), sampler.Samples())
		f, err := os.Create(tracePath)
		die(err)
		die(tl.WriteJSON(f))
		die(f.Close())
		fmt.Printf("wrote timeline to %s (open in chrome://tracing)\n", tracePath)
	}
	led := c.Ledger().Records()
	if len(led) == 1 {
		r := led[0]
		fmt.Printf("migration %v m%d->m%d: freeze=%dus moved=%dB admin=%d msgs (%d B), forwards=%d updates=%d\n",
			r.PID, uint16(r.From), uint16(r.To), r.FreezeMicros(), r.BytesMoved(),
			r.AdminMsgs, r.AdminBytes, r.ForwardsAbsorbed, r.LinkUpdatesSent)
	}
}
