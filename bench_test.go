// Benchmarks regenerating the paper's evaluation (§6 and the protocol
// figures). Wall-clock ns/op is meaningless here — the interesting output
// is the simulated-cost metrics each bench reports:
//
//	simus/op         simulated microseconds for the measured operation
//	adminMsgs/mig    administrative messages per migration      (paper: 9)
//	adminB/msg       bytes per administrative message           (paper: 6-12)
//	programB/mig     program bytes moved                        (dominates)
//	residentB/mig    resident state bytes                       (paper: ~250)
//	swappableB/mig   swappable state bytes                      (paper: ~600)
//	extraMsgs/fwd    extra messages per forwarded message       (paper: 2)
//	staleSends/link  messages on a stale link before update     (paper: 1-2)
//
// Run: go test -bench=. -benchmem
package demosmp_test

import (
	"fmt"
	"testing"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/workload"
)

func mustCluster(b *testing.B, opts demosmp.Options) *demosmp.Cluster {
	b.Helper()
	if opts.Machines == 0 {
		opts.Machines = 3
	}
	c, err := demosmp.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkMigration is E1: the state transfer cost of one migration as the
// process image grows. "For non-trivial processes, the size of the program
// and data overshadow the size of the system information."
func BenchmarkMigration(b *testing.B) {
	for _, size := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("image=%dKB", size>>10), func(b *testing.B) {
			var lat, prog, res, swap, packets float64
			for i := 0; i < b.N; i++ {
				c := mustCluster(b, demosmp.Options{})
				pid, err := c.SpawnProgram(1, demosmp.CPUBoundSized(1<<20, size))
				if err != nil {
					b.Fatal(err)
				}
				c.RunFor(3000)
				c.Migrate(pid, 2)
				c.Run()
				reps := c.Reports()
				if len(reps) != 1 || !reps[0].OK {
					b.Fatalf("migration failed: %+v", reps)
				}
				r := reps[0]
				lat += float64(r.FreezeMicros())
				prog += float64(r.ProgramBytes)
				res += float64(r.ResidentBytes)
				swap += float64(r.SwappableBytes)
				packets += float64(r.DataPackets)
			}
			n := float64(b.N)
			b.ReportMetric(lat/n, "simus/op")
			b.ReportMetric(prog/n, "programB/mig")
			b.ReportMetric(res/n, "residentB/mig")
			b.ReportMetric(swap/n, "swappableB/mig")
			b.ReportMetric(packets/n, "packets/mig")
		})
	}
}

// BenchmarkMigrationAdmin is E2: "The current DEMOS/MP implementation uses
// 9 such messages, each message being in the 6-12 byte range."
func BenchmarkMigrationAdmin(b *testing.B) {
	var msgs, bytes float64
	for i := 0; i < b.N; i++ {
		c := mustCluster(b, demosmp.Options{})
		pid, _ := c.SpawnProgram(1, demosmp.CPUBound(1<<20))
		c.RunFor(3000)
		before := c.Stats()
		c.Migrate(pid, 2)
		c.Run()
		after := c.Stats()
		dm := float64(after.TotalAdmin() - before.TotalAdmin())
		var db float64
		for m, ks := range after.PerKernel {
			db += float64(ks.AdminBytes - before.PerKernel[m].AdminBytes)
		}
		msgs += dm
		if dm > 0 {
			bytes += db / dm
		}
	}
	b.ReportMetric(msgs/float64(b.N), "adminMsgs/mig")
	b.ReportMetric(bytes/float64(b.N), "adminB/msg")
}

// BenchmarkDirectSend and BenchmarkForwardedSend are E3: "Each message that
// goes through a forwarding address generates two additional messages."
func BenchmarkDirectSend(b *testing.B) {
	benchSendPath(b, false)
}

func BenchmarkForwardedSend(b *testing.B) {
	benchSendPath(b, true)
}

func benchSendPath(b *testing.B, throughForwarder bool) {
	var frames, lat float64
	for i := 0; i < b.N; i++ {
		c := mustCluster(b, demosmp.Options{})
		sinkBody := &workload.Sink{}
		sink, _ := c.Spawn(3, kernel.SpawnSpec{Body: sinkBody})
		server, _ := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
		if throughForwarder {
			c.Migrate(server, 2)
		}
		c.Run()
		before := c.Stats()
		start := c.Now()
		// One message on a link whose hint is the birth machine.
		c.Kernel(3).GiveMessageTo(addr.At(server, 1), addr.At(sink, 3), []byte("x"))
		c.Run()
		after := c.Stats()
		frames += float64(after.Net.Frames - before.Net.Frames)
		lat += float64(c.Now() - start)
		_ = sinkBody
	}
	b.ReportMetric(frames/float64(b.N), "frames/send")
	b.ReportMetric(lat/float64(b.N), "simus/op")
}

// BenchmarkLinkUpdateConvergence is E4: messages sent on a stale link
// before the update lands — "Typically, the link is updated after the
// first message", worst case observed 2.
func BenchmarkLinkUpdateConvergence(b *testing.B) {
	var stale, fixed float64
	for i := 0; i < b.N; i++ {
		c := mustCluster(b, demosmp.Options{})
		server, _ := c.Spawn(1, kernel.SpawnSpec{Program: workload.EchoServer(40)})
		client, _ := c.Spawn(3, kernel.SpawnSpec{
			Program: workload.RequestClient(40),
			Links:   []link.Link{{Addr: addr.At(server, 1)}},
		})
		c.RunFor(5000)
		c.Migrate(server, 2)
		c.Run()
		s1 := c.Stats().PerKernel[addr.MachineID(1)]
		stale += float64(s1.Forwarded)
		s3 := c.Stats().PerKernel[addr.MachineID(3)]
		fixed += float64(s3.LinksFixed)
		_ = client
	}
	b.ReportMetric(stale/float64(b.N), "staleSends/link")
	b.ReportMetric(fixed/float64(b.N), "linksFixed/mig")
}

// BenchmarkForwardChain is E5: repeated migrations leave 8-byte forwarding
// addresses; a message pays one extra hop per chain element until links are
// updated.
func BenchmarkForwardChain(b *testing.B) {
	for _, hops := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("chain=%d", hops), func(b *testing.B) {
			var lat, fwdBytes float64
			for i := 0; i < b.N; i++ {
				c := mustCluster(b, demosmp.Options{Machines: 6})
				server, _ := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
				for h := 0; h < hops; h++ {
					c.Migrate(server, 2+h)
					c.Run()
				}
				sink, _ := c.Spawn(6, kernel.SpawnSpec{Body: &workload.Sink{}})
				start := c.Now()
				c.Kernel(6).GiveMessageTo(addr.At(server, 1), addr.At(sink, 6), []byte("x"))
				c.Run()
				lat += float64(c.Now() - start)
				for _, ks := range c.Stats().PerKernel {
					fwdBytes += float64(ks.ForwarderBytes)
				}
			}
			b.ReportMetric(lat/float64(b.N), "simus/op")
			b.ReportMetric(fwdBytes/float64(b.N), "forwarderB/cluster")
		})
	}
}

// BenchmarkFSMigration is E6: throughput of file system clients while the
// file server migrates, vs undisturbed.
func BenchmarkFSMigration(b *testing.B) {
	for _, migrate := range []bool{false, true} {
		name := "steady"
		if migrate {
			name = "migrate-fileserver"
		}
		b.Run(name, func(b *testing.B) {
			var dur float64
			for i := 0; i < b.N; i++ {
				c := mustCluster(b, demosmp.Options{Machines: 3, FS: true})
				var pids []demosmp.ProcessID
				for j := 0; j < 4; j++ {
					pid, err := c.SpawnFSClient(2, fmt.Sprintf("bench%d", j), 8, 600)
					if err != nil {
						b.Fatal(err)
					}
					pids = append(pids, pid)
				}
				if migrate {
					c.RunFor(80000)
					c.Migrate(c.FilePID, 3)
				}
				c.Run()
				for _, pid := range pids {
					if e, _, ok := c.ExitOf(pid); !ok || e.Code != 8 {
						b.Fatalf("client verified %d/8 (ok=%v)", e.Code, ok)
					}
				}
				dur += float64(c.Now())
			}
			b.ReportMetric(dur/float64(b.N), "simus/op")
		})
	}
}

// BenchmarkForwardVsReturn is E7: the paper's forwarding design vs the
// return-to-sender alternative it rejects.
func BenchmarkForwardVsReturn(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    kernel.ForwardMode
	}{{"forwarding", demosmp.ModeForward}, {"return-to-sender", demosmp.ModeReturnToSender}} {
		b.Run(mode.name, func(b *testing.B) {
			var frames, lat float64
			for i := 0; i < b.N; i++ {
				c := mustCluster(b, demosmp.Options{
					Machines:    3,
					Switchboard: true,
					PM:          true,
					Kernel:      demosmp.KernelConfig{Mode: mode.m},
				})
				sink, _ := c.Spawn(3, kernel.SpawnSpec{Body: &workload.Sink{}})
				server, _ := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
				c.Migrate(server, 2)
				c.Run()
				before := c.Stats()
				start := c.Now()
				c.Kernel(3).GiveMessageTo(addr.At(server, 1), addr.At(sink, 3), []byte("x"))
				c.Run()
				after := c.Stats()
				frames += float64(after.Net.Frames - before.Net.Frames)
				lat += float64(c.Now() - start)
			}
			b.ReportMetric(frames/float64(b.N), "frames/send")
			b.ReportMetric(lat/float64(b.N), "simus/op")
		})
	}
}

// BenchmarkLoadBalance is E8: makespan of an imbalanced CPU-bound workload
// with and without the threshold migration policy.
func BenchmarkLoadBalance(b *testing.B) {
	for _, withPolicy := range []bool{false, true} {
		name := "static"
		if withPolicy {
			name = "threshold-policy"
		}
		b.Run(name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				opts := demosmp.Options{
					Machines:    3,
					Switchboard: true,
					PM:          true,
				}
				if withPolicy {
					opts.Policy = demosmp.NewThresholdPolicy(60, 30, 200000)
					opts.Kernel.LoadReportEvery = 100000
				}
				c := mustCluster(b, opts)
				var pids []demosmp.ProcessID
				for j := 0; j < 6; j++ {
					pid, _ := c.SpawnProgram(1, demosmp.CPUBound(400000))
					pids = append(pids, pid)
				}
				c.Run()
				for _, pid := range pids {
					if e, _, ok := c.ExitOf(pid); !ok || e.Code != demosmp.CPUBoundResult(400000) {
						b.Fatal("workload corrupted")
					}
				}
				makespan += float64(c.Now())
			}
			b.ReportMetric(makespan/float64(b.N), "simus/op")
		})
	}
}

// BenchmarkServerMigration is E9: migrating a server with many long-lived
// inbound links (the worst case of §5) vs a user process with few.
func BenchmarkServerMigration(b *testing.B) {
	for _, clients := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			var updates, forwards float64
			for i := 0; i < b.N; i++ {
				c := mustCluster(b, demosmp.Options{Machines: 4})
				server, _ := c.Spawn(1, kernel.SpawnSpec{Program: workload.EchoServer(clients * 10)})
				var cl []demosmp.ProcessID
				for j := 0; j < clients; j++ {
					pid, _ := c.Spawn(2+j%3, kernel.SpawnSpec{
						Program: workload.RequestClient(10),
						Links:   []link.Link{{Addr: addr.At(server, 1)}},
					})
					cl = append(cl, pid)
				}
				c.RunFor(5000)
				c.Migrate(server, 4)
				c.Run()
				s := c.Stats()
				for _, ks := range s.PerKernel {
					updates += float64(ks.LinkUpdatesSent)
					forwards += float64(ks.Forwarded)
				}
				_ = cl
			}
			b.ReportMetric(updates/float64(b.N), "linkUpdates/mig")
			b.ReportMetric(forwards/float64(b.N), "forwards/mig")
		})
	}
}

// BenchmarkLazyVsEager is E11: the paper's lazy per-sender updates vs an
// eager broadcast of the new location to every kernel.
func BenchmarkLazyVsEager(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "lazy"
		if eager {
			name = "eager-broadcast"
		}
		b.Run(name, func(b *testing.B) {
			var updateMsgs, forwards float64
			for i := 0; i < b.N; i++ {
				c := mustCluster(b, demosmp.Options{
					Machines: 6,
					Kernel:   demosmp.KernelConfig{EagerUpdate: eager},
				})
				server, _ := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
				var holders []demosmp.ProcessID
				for j := 0; j < 8; j++ {
					pid, _ := c.Spawn(2+j%5, kernel.SpawnSpec{
						Body:  &workload.LinkHolder{},
						Links: []link.Link{{Addr: addr.At(server, 1)}},
					})
					holders = append(holders, pid)
				}
				c.Run()
				c.Migrate(server, 6)
				c.Run()
				// Every holder now uses its (possibly fixed) link once.
				for _, h := range holders {
					m, _ := c.Locate(h)
					c.Kernel(int(m)).GiveMessage(h, addr.KernelAddr(m), []byte("poke"))
				}
				c.Run()
				s := c.Stats()
				for _, ks := range s.PerKernel {
					updateMsgs += float64(ks.LinkUpdatesSent + ks.EagerUpdatesSent)
					forwards += float64(ks.Forwarded)
				}
			}
			b.ReportMetric(updateMsgs/float64(b.N), "updateMsgs/mig")
			b.ReportMetric(forwards/float64(b.N), "forwards/mig")
		})
	}
}
