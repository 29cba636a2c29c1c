// Command experiments regenerates every evaluation row of "Process
// Migration in DEMOS/MP" (Powell & Miller, SOSP 1983) on the simulated
// cluster and prints paper-vs-measured tables in markdown.
//
// Usage:
//
//	experiments            # run everything
//	experiments -run E1,E4 # run selected experiments
//	experiments -tournament-json findings.json
//	                       # run the policy tournament card
//
// Every number this command prints is simulated time or a count. Host
// wall-clock belongs to `go test -bench` (the Benchmark* functions beside
// the code they measure) and bench/.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/trace"
	"demosmp/internal/workload"
)

var (
	runFlag             = flag.String("run", "", "comma-separated experiment ids (default: all)")
	tournamentJSONFlag  = flag.String("tournament-json", "", "run the policy tournament (seeded A/B hypotheses on the sharded runtime) and write the findings artifact to this path, then exit")
	tournamentShortFlag = flag.Bool("tournament-short", false, "shrink the tournament to CI smoke scale (32 machines, 2 seeds)")
)

type experiment struct {
	id    string
	title string
	fn    func()
}

func main() {
	flag.Parse()
	if *tournamentJSONFlag != "" || *tournamentShortFlag {
		tournament(*tournamentJSONFlag, *tournamentShortFlag)
		return
	}
	exps, err := selectExperiments(*runFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	for _, e := range exps {
		e.run()
	}
}

func (e experiment) run() {
	fmt.Printf("\n## %s — %s\n\n", e.id, e.title)
	e.fn()
}

var allExperiments = []experiment{
	{"E1", "State transfer cost vs process size (§6)", e1},
	{"E2", "Administrative cost: 9 messages of 6-12 bytes (§6)", e2},
	{"E3", "Forwarded message overhead: 2 extra messages (§6)", e3},
	{"E4", "Link update convergence: 1-2 messages (§5, §6)", e4},
	{"E5", "Forwarding addresses: 8 bytes, chains (§4)", e5},
	{"E6", "Migrating the file server under client I/O (§2.3)", e6},
	{"E7", "Forwarding vs return-to-sender (§4)", e7},
	{"E8", "Load balancing via migration (§1)", e8},
	{"E9", "User vs server process migration (§2.4, §5)", e9},
	{"E10", "Draining a dying processor (§1)", e10},
	{"E11", "Ablation: lazy vs eager link update", e11},
	{"E12", "Interdomain migration: refusal and looking elsewhere (§3.2)", e12},
	{"E13", "Fault recovery from stable storage: checkpoint/revive (§1)", e13},
	{"E14", "Migration cost vs communication efficiency (§6)", e14},
	{"E15", "Communication affinity: co-locating a pipeline (§1)", e15},
	{"E16", "Migration frequency vs slowdown (§6)", e16},
	{"F31", "Figure 3-1: the eight migration steps", f31},
	{"F41", "Figure 4-1: message through a forwarding address", f41},
	{"F51", "Figure 5-1: link update after a forward", f51},
}

// selectExperiments returns the experiments named by the comma-separated
// ids in run, in table order (all of them for ""). An id that names no
// experiment is an error, not an empty run.
func selectExperiments(run string) ([]experiment, error) {
	if run == "" {
		return allExperiments, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(run, ",") {
		want[strings.TrimSpace(id)] = true
	}
	var exps []experiment
	var valid []string
	for _, e := range allExperiments {
		valid = append(valid, e.id)
		if want[e.id] {
			exps = append(exps, e)
			delete(want, e.id)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("-run: unknown experiment id %q (valid: %s)", unknown, strings.Join(valid, ","))
	}
	return exps, nil
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func cluster(opts demosmp.Options) *demosmp.Cluster {
	if opts.Machines == 0 {
		opts.Machines = 3
	}
	c, err := demosmp.New(opts)
	die(err)
	return c
}

// e1: migrate processes of growing image size; the three data moves.
func e1() {
	fmt.Println("| image size | program moved | resident | swappable | packets | migration latency |")
	fmt.Println("|-----------:|--------------:|---------:|----------:|--------:|------------------:|")
	for _, size := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		c := cluster(demosmp.Options{})
		pid, err := c.SpawnProgram(1, demosmp.CPUBoundSized(1<<30, size))
		die(err)
		c.RunFor(3000)
		die(c.Migrate(pid, 2))
		c.RunFor(10_000_000)
		reps := c.Reports()
		if len(reps) != 1 || !reps[0].OK {
			die(fmt.Errorf("E1: migration failed at %d bytes", size))
		}
		r := reps[0]
		fmt.Printf("| %d KiB | %d B | %d B | %d B | %d | %v |\n",
			size>>10, r.ProgramBytes, r.ResidentBytes, r.SwappableBytes,
			r.DataPackets, r.FreezeMicros())
	}
	fmt.Println("\nPaper: three data moves — program, ~250 B resident, ~600 B swappable;")
	fmt.Println("\"For non-trivial processes, the size of the program and data overshadow")
	fmt.Println("the size of the system information.\" Shape holds: program dominates at")
	fmt.Println("every size; our leaner kernel record makes resident/swappable smaller.")
}

// e2: count administrative messages and their sizes for one migration.
func e2() {
	c := cluster(demosmp.Options{})
	pid, err := c.SpawnProgram(1, demosmp.CPUBound(1<<20))
	die(err)
	c.RunFor(3000)
	before := c.Stats()
	die(c.Migrate(pid, 2))
	c.Run()
	after := c.Stats()

	type row struct {
		op    string
		count uint64
	}
	var rows []row
	var total, bytes uint64
	for m, ks := range after.PerKernel {
		for op, n := range ks.AdminSent {
			d := n - before.PerKernel[m].AdminSent[op]
			if d > 0 {
				rows = append(rows, row{msg.Op(op).String(), d})
				total += d
			}
		}
		bytes += ks.AdminBytes - before.PerKernel[m].AdminBytes
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].op < rows[j].op })
	fmt.Println("| administrative message | count |")
	fmt.Println("|------------------------|------:|")
	for _, r := range rows {
		fmt.Printf("| %s | %d |\n", r.op, r.count)
	}
	fmt.Printf("| **total** | **%d** |\n", total)
	fmt.Printf("\nMeasured: %d messages, mean payload %.1f bytes. Paper: \"9 such\n", total, float64(bytes)/float64(total))
	fmt.Println("messages, each message being in the 6-12 byte range.\"")
}

// e3: network frames for a direct send vs one through a forwarding address.
func e3() {
	measure := func(through bool) (frames uint64, lat demosmp.Time) {
		c := cluster(demosmp.Options{})
		sink, _ := c.Spawn(3, kernel.SpawnSpec{Body: &workload.Sink{}})
		server, _ := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
		if through {
			die(c.Migrate(server, 2))
		}
		c.Run()
		before := c.Stats()
		start := c.Now()
		c.Kernel(3).GiveMessageTo(addr.At(server, 1), addr.At(sink, 3), []byte("x"))
		c.Run()
		return c.Stats().Net.Frames - before.Net.Frames, c.Now() - start
	}
	df, dl := measure(false)
	ff, fl := measure(true)
	fmt.Println("| path | network messages | delivery latency |")
	fmt.Println("|------|-----------------:|-----------------:|")
	fmt.Printf("| direct | %d | %v |\n", df, dl)
	fmt.Printf("| through forwarding address | %d | %v |\n", ff, fl)
	fmt.Printf("\nExtra messages per forward: %d. Paper: \"Each message that goes through\n", ff-df)
	fmt.Println("a forwarding address generates two additional messages\" (the re-routed")
	fmt.Println("message plus the update message back to the sender).")
}

// e4: how many messages cross a stale link before the update fixes it,
// sweeping the migration instant across the conversation. Each sweep point
// is an independent cluster, so the sweep fans out across goroutines.
func e4() {
	instants := []demosmp.Time{2000, 5000, 8000, 11000, 14000, 17000, 20000, 23000, 26000, 29000}
	results := make([]uint64, len(instants))
	var wg sync.WaitGroup
	for i, at := range instants {
		wg.Add(1)
		go func(i int, at demosmp.Time) {
			defer wg.Done()
			c := cluster(demosmp.Options{})
			server, _ := c.Spawn(1, kernel.SpawnSpec{Program: workload.EchoServer(60)})
			c.Spawn(3, kernel.SpawnSpec{
				Program: workload.RequestClient(60),
				Links:   []link.Link{{Addr: addr.At(server, 1)}},
			})
			c.RunFor(at)
			die(c.Migrate(server, 2))
			c.Run()
			results[i] = c.Stats().PerKernel[addr.MachineID(1)].Forwarded
		}(i, at)
	}
	wg.Wait()
	dist := map[uint64]int{}
	worst := uint64(0)
	for _, stale := range results {
		dist[stale]++
		if stale > worst {
			worst = stale
		}
	}
	fmt.Println("| stale sends before the link was updated | runs |")
	fmt.Println("|-----------------------------------------:|-----:|")
	var keys []uint64
	for k := range dist {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fmt.Printf("| %d | %d |\n", k, dist[k])
	}
	fmt.Printf("\nWorst case observed: %d. Paper: \"the worst case observed was two\n", worst)
	fmt.Println("messages sent over a link before it was updated. Typically, the link")
	fmt.Println("is updated after the first message.\"")
}

// e5: forwarding address storage and chained forwarding.
func e5() {
	fmt.Printf("Encoded forwarding address: %d bytes (paper: \"it uses 8 bytes of storage\").\n\n",
		kernel.ForwarderWireSize)
	fmt.Println("| migrations (chain length) | delivery latency via full chain | forwarder bytes cluster-wide |")
	fmt.Println("|--------------------------:|--------------------------------:|-----------------------------:|")
	for _, hops := range []int{1, 2, 3, 4} {
		c := cluster(demosmp.Options{Machines: 6})
		server, _ := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
		for h := 0; h < hops; h++ {
			die(c.Migrate(server, 2+h))
			c.Run()
		}
		sink, _ := c.Spawn(6, kernel.SpawnSpec{Body: &workload.Sink{}})
		start := c.Now()
		c.Kernel(6).GiveMessageTo(addr.At(server, 1), addr.At(sink, 6), []byte("x"))
		c.Run()
		var fb uint64
		for _, ks := range c.Stats().PerKernel {
			fb += ks.ForwarderBytes
		}
		fmt.Printf("| %d | %v | %d |\n", hops, c.Now()-start, fb)
	}
	fmt.Println("\nWith ReclaimForwarders enabled, death notices walk the chain backwards")
	fmt.Println("and remove every forwarder (§4's proposed garbage collection; see")
	fmt.Println("TestForwarderGC). By default they persist, as deployed in the paper.")
}

// e6: the paper's own test example.
func e6() {
	run := func(migrate bool) (demosmp.Time, bool, uint64) {
		c := cluster(demosmp.Options{Machines: 3, FS: true})
		var pids []demosmp.ProcessID
		for j := 0; j < 4; j++ {
			pid, err := c.SpawnFSClient(2, fmt.Sprintf("io%d", j), 10, 600)
			die(err)
			pids = append(pids, pid)
		}
		if migrate {
			c.RunFor(80000)
			die(c.Migrate(c.FilePID, 3))
		}
		c.Run()
		allOK := true
		for _, pid := range pids {
			if e, _, ok := c.ExitOf(pid); !ok || e.Code != 10 {
				allOK = false
			}
		}
		s := c.Stats().PerKernel[addr.MachineID(1)]
		return c.Now(), allOK, s.Forwarded + s.ForwardedPending
	}
	steady, okS, _ := run(false)
	moved, okM, fwd := run(true)
	fmt.Println("| scenario | all 40 I/O rounds verified | completion time | messages forwarded |")
	fmt.Println("|----------|---------------------------|----------------:|-------------------:|")
	fmt.Printf("| steady file server | %v | %v | 0 |\n", okS, steady)
	fmt.Printf("| file server migrated mid-I/O | %v | %v | %d |\n", okM, moved, fwd)
	fmt.Printf("\nDisturbance: %.2f%% longer completion; zero lost or corrupted operations.\n",
		100*float64(moved-steady)/float64(steady))
	fmt.Println("Paper: \"It migrates a file system process while several user processes")
	fmt.Println("are performing I/O. This is more difficult than moving a user process.\"")
}

// e7: forwarding vs the return-to-sender alternative.
func e7() {
	measure := func(mode kernel.ForwardMode) (frames uint64, lat demosmp.Time) {
		c := cluster(demosmp.Options{
			Machines: 3, Switchboard: true, PM: true,
			Kernel: demosmp.KernelConfig{Mode: mode},
		})
		sink, _ := c.Spawn(3, kernel.SpawnSpec{Body: &workload.Sink{}})
		server, _ := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
		die(c.Migrate(server, 2))
		c.Run()
		before := c.Stats()
		start := c.Now()
		c.Kernel(3).GiveMessageTo(addr.At(server, 1), addr.At(sink, 3), []byte("x"))
		c.Run()
		return c.Stats().Net.Frames - before.Net.Frames, c.Now() - start
	}
	ff, fl := measure(demosmp.ModeForward)
	rf, rl := measure(demosmp.ModeReturnToSender)
	fmt.Println("| scheme | messages per stale send | delivery latency | state left on source |")
	fmt.Println("|--------|------------------------:|-----------------:|----------------------|")
	fmt.Printf("| forwarding address (paper) | %d | %v | 8 bytes |\n", ff, fl)
	fmt.Printf("| return to sender + locate | %d | %v | none |\n", rf, rl)
	fmt.Println("\nPaper: the alternative means \"more of the system would be involved in")
	fmt.Println("message forwarding\" and \"violates the transparency of communications\" —")
	fmt.Println("measured: it also costs more messages and higher latency per stale send.")
}

// e8: throughput gain from threshold-policy load balancing.
func e8() {
	run := func(withPolicy bool) demosmp.Time {
		opts := demosmp.Options{Machines: 3, Switchboard: true, PM: true}
		if withPolicy {
			opts.Policy = demosmp.NewThresholdPolicy(60, 30, 200000)
			opts.Kernel.LoadReportEvery = 100000
		}
		c := cluster(opts)
		for j := 0; j < 6; j++ {
			_, err := c.SpawnProgram(1, demosmp.CPUBound(400000))
			die(err)
		}
		c.Run()
		return c.Now()
	}
	static := run(false)
	balanced := run(true)
	fmt.Println("| placement | makespan of 6 CPU-bound jobs (all born on m1) |")
	fmt.Println("|-----------|----------------------------------------------:|")
	fmt.Printf("| static | %v |\n", static)
	fmt.Printf("| threshold migration policy | %v |\n", balanced)
	fmt.Printf("\nSpeedup %.2fx on 3 machines. Paper motivation (§1): \"a system has the\n",
		float64(static)/float64(balanced))
	fmt.Println("opportunity to achieve better overall throughput, in spite of the")
	fmt.Println("communication and computation involved in moving a process.\"")
}

// e9: stale-link fix-up work, user process vs server with many clients.
func e9() {
	fmt.Println("| migrated process | inbound links | forwards after move | link updates sent |")
	fmt.Println("|------------------|--------------:|--------------------:|------------------:|")
	// User process: nobody holds links to it.
	{
		c := cluster(demosmp.Options{})
		pid, _ := c.SpawnProgram(1, demosmp.CPUBound(1<<20))
		c.RunFor(3000)
		die(c.Migrate(pid, 2))
		c.Run()
		s := c.Stats().PerKernel[addr.MachineID(1)]
		fmt.Printf("| user process | 0 | %d | %d |\n", s.Forwarded, s.LinkUpdatesSent)
	}
	for _, clients := range []int{4, 16, 48} {
		c := cluster(demosmp.Options{Machines: 4})
		server, _ := c.Spawn(1, kernel.SpawnSpec{Program: workload.EchoServer(clients * 10)})
		for j := 0; j < clients; j++ {
			c.Spawn(2+j%3, kernel.SpawnSpec{
				Program: workload.RequestClient(10),
				Links:   []link.Link{{Addr: addr.At(server, 1)}},
			})
		}
		c.RunFor(5000)
		die(c.Migrate(server, 4))
		c.Run()
		s := c.Stats().PerKernel[addr.MachineID(1)]
		fmt.Printf("| server process | %d | %d | %d |\n", clients, s.Forwarded, s.LinkUpdatesSent)
	}
	fmt.Println("\nPaper (§5): \"The worst case will be when the moving process is a server")
	fmt.Println("process... there may be many links to the process that need to be fixed")
	fmt.Println("up\" — one forward + one update per active client, then silence.")
}

// e10: evacuating a dying processor.
func e10() {
	c := cluster(demosmp.Options{
		Machines: 3, Switchboard: true, PM: true,
		Policy: demosmp.NewDrainPolicy(2),
		Kernel: demosmp.KernelConfig{LoadReportEvery: 50000},
	})
	var pids []demosmp.ProcessID
	for j := 0; j < 4; j++ {
		pid, err := c.SpawnProgram(2, demosmp.CPUBound(400000))
		die(err)
		pids = append(pids, pid)
	}
	c.Run()
	fmt.Println("| process | finished on | result intact |")
	fmt.Println("|---------|-------------|---------------|")
	evacuated := 0
	for _, pid := range pids {
		e, m, ok := c.ExitOf(pid)
		intact := ok && e.Code == demosmp.CPUBoundResult(400000)
		if m != 2 {
			evacuated++
		}
		fmt.Printf("| %v | %v | %v |\n", pid, m, intact)
	}
	fmt.Printf("\n%d/%d processes left the dying machine. Paper (§1): \"working processes\n",
		evacuated, len(pids))
	fmt.Println("may be migrated from a dying processor (like rats leaving a sinking")
	fmt.Println("ship) before it completely fails.\"")
}

// e11: lazy per-sender updates vs eager broadcast.
func e11() {
	run := func(eager bool, holders int) (updates, forwards uint64) {
		c := cluster(demosmp.Options{
			Machines: 6,
			Kernel:   demosmp.KernelConfig{EagerUpdate: eager},
		})
		server, _ := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
		var hs []demosmp.ProcessID
		for j := 0; j < holders; j++ {
			pid, _ := c.Spawn(2+j%5, kernel.SpawnSpec{
				Body:  &workload.LinkHolder{},
				Links: []link.Link{{Addr: addr.At(server, 1)}},
			})
			hs = append(hs, pid)
		}
		c.Run()
		die(c.Migrate(server, 6))
		c.Run()
		for _, h := range hs {
			m, _ := c.Locate(h)
			c.Kernel(int(m)).GiveMessage(h, addr.KernelAddr(m), []byte("poke"))
		}
		c.Run()
		for _, ks := range c.Stats().PerKernel {
			updates += ks.LinkUpdatesSent + ks.EagerUpdatesSent
			forwards += ks.Forwarded
		}
		return
	}
	fmt.Println("| link holders | lazy: updates+forwards | eager: updates+forwards |")
	fmt.Println("|-------------:|------------------------:|-------------------------:|")
	for _, holders := range []int{2, 5, 20} {
		lu, lf := run(false, holders)
		eu, ef := run(true, holders)
		fmt.Printf("| %d | %d + %d | %d + %d |\n", holders, lu, lf, eu, ef)
	}
	fmt.Println("\nLazy pays one forward+update per *active* stale link; eager pays one")
	fmt.Println("broadcast per machine no matter who ever sends. The paper's lazy choice")
	fmt.Println("wins when most links are dormant reply/request links (§2.4), and never")
	fmt.Println("touches kernels that hold no links to the migrated process at all.")
}

// e12: §3.2 — destinations may refuse; the manager looks elsewhere.
func e12() {
	c := cluster(demosmp.Options{Machines: 3, Switchboard: true, PM: true})
	// Machine 2 is under different administrative control.
	c.Kernel(2).SetAccept(func(ask msg.MigrateAsk, memFree int) bool { return false })
	pid, _ := c.SpawnProgram(1, demosmp.CPUBound(300000))
	c.RunFor(5000)
	die(c.Evict(pid))
	c.Run()
	_, m, _ := c.ExitOf(pid)
	refused := c.Stats().PerKernel[addr.MachineID(2)].MigrationsRefused
	fmt.Println("| step | outcome |")
	fmt.Println("|------|---------|")
	fmt.Printf("| evict %v from m1 | first candidate m2 refuses (%d refusal) |\n", pid, refused)
	fmt.Printf("| PM looks elsewhere | process completes on %v |\n", m)
	fmt.Println("\nPaper (§3.2): \"The destination processor may simply refuse to accept")
	fmt.Println("any migrations not fitting its criteria. The source processor, once")
	fmt.Println("rebuffed, has the option of looking elsewhere.\"")
}

// e13: §1 — migrate a process off a processor that has *already* crashed,
// from a checkpoint in stable storage.
func e13() {
	c := cluster(demosmp.Options{Machines: 2})
	pid, _ := c.SpawnProgram(1, demosmp.CPUBound(100000))
	c.RunFor(50000)
	snap, err := c.Kernel(1).Checkpoint(pid)
	die(err)
	c.RunFor(10000)
	c.Kernel(1).Crash()
	c.Run()
	_, err = c.Kernel(2).Revive(snap)
	die(err)
	c.Run()
	e, m, ok := c.ExitOf(pid)
	fmt.Println("| step | outcome |")
	fmt.Println("|------|---------|")
	fmt.Printf("| checkpoint at t=50ms | %d bytes to stable storage |\n", len(snap))
	fmt.Println("| m1 crashes at t=60ms | process and 10ms of progress lost |")
	fmt.Printf("| revive on m2 | finished=%v on %v, result intact=%v |\n", ok, m, e.Code == demosmp.CPUBoundResult(100000))
	fmt.Println("\nPaper (§1): \"If the information necessary to transport a process is")
	fmt.Println("saved in stable storage, it may be possible to 'migrate' a process")
	fmt.Println("from a processor that has crashed to a working one.\"")
}

// e14: sweep network speed and packet size; §6 closes with "The cost of
// migrating a process depends on the efficiency of both of these types of
// communications" — short control messages and block data transfers.
func e14() {
	fmt.Println("| network | data packet | migration latency (64 KiB process) | admin msgs |")
	fmt.Println("|---------|------------:|-----------------------------------:|-----------:|")
	type net struct {
		name    string
		perByte uint32
	}
	for _, n := range []net{
		{"1 Mbit/s", 8000},
		{"3 Mbit/s (Z8000-era default)", 2700},
		{"10 Mbit/s", 800},
	} {
		for _, pkt := range []int{128, 512, 2048} {
			c := cluster(demosmp.Options{
				Machines: 2,
				Net:      netw.Config{PerByteNanos: n.perByte},
				Kernel:   demosmp.KernelConfig{DataPacket: pkt},
			})
			pid, _ := c.SpawnProgram(1, demosmp.CPUBoundSized(1<<30, 64<<10))
			c.RunFor(3000)
			die(c.Migrate(pid, 2))
			c.RunFor(60_000_000)
			reps := c.Reports()
			if len(reps) != 1 || !reps[0].OK {
				die(fmt.Errorf("E14 migration failed"))
			}
			fmt.Printf("| %s | %d B | %v | %d |\n", n.name, pkt, reps[0].FreezeMicros(), reps[0].AdminMsgs)
		}
	}
	fmt.Println("\nLarger packets amortize per-message overhead (the design rationale for")
	fmt.Println("the move-data facility: it \"minimize[s] network overhead by sending")
	fmt.Println("larger packets\"); faster links shrink the dominant program transfer.")
	fmt.Println("The 9 administrative messages are invariant across all of it.")
}

// e15: a four-process pipeline deliberately scattered across three
// machines; the affinity policy drags each process toward the machine it
// talks to most, collapsing inter-machine traffic (§1's second motivation).
func e15() {
	run := func(affinity bool) (userFrames uint64, placement string, migs uint64) {
		opts := demosmp.Options{Machines: 3, Switchboard: true, PM: true}
		if affinity {
			opts.Policy = demosmp.NewCommAffinityPolicy(10, 300000)
			opts.Kernel.LoadReportEvery = 100000
		}
		c := cluster(opts)
		sink, _ := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
		stageB, _ := c.Spawn(3, kernel.SpawnSpec{Body: &workload.Stage{},
			Links: []link.Link{{Addr: addr.At(sink, 1)}}})
		stageA, _ := c.Spawn(2, kernel.SpawnSpec{Body: &workload.Stage{},
			Links: []link.Link{{Addr: addr.At(stageB, 3)}}})
		src, _ := c.Spawn(1, kernel.SpawnSpec{
			Body:  &workload.Chatter{N: 1500, Interval: 3000},
			Links: []link.Link{{Addr: addr.At(stageA, 2)}}})
		c.Run()
		s := c.Stats()
		names := []demosmp.ProcessID{src, stageA, stageB, sink}
		for i, pid := range names {
			if i > 0 {
				placement += " -> "
			}
			if mm, ok := c.Locate(pid); ok {
				placement += fmt.Sprintf("m%d", uint16(mm))
			} else if _, em, okE := c.ExitOf(pid); okE {
				// The chatter source exits when done.
				placement += fmt.Sprintf("m%d", uint16(em))
			} else {
				placement += "?"
			}
		}
		return s.Net.ByKind[msg.KindUser], placement, s.TotalMigrations()
	}
	sf, sp, _ := run(false)
	af, ap, migs := run(true)
	fmt.Println("| placement policy | pipeline layout at end | inter-machine user messages | migrations |")
	fmt.Println("|------------------|------------------------|----------------------------:|-----------:|")
	fmt.Printf("| static (scattered) | %s | %d | 0 |\n", sp, sf)
	fmt.Printf("| communication affinity | %s | %d | %d |\n", ap, af, migs)
	fmt.Printf("\nInter-machine traffic reduced %.1fx: the policy walks each process to\n",
		float64(sf)/float64(af))
	fmt.Println("its heaviest correspondent until the whole pipeline shares one machine")
	fmt.Println("(§1: offsetting \"the possible increased cost of accessing its less")
	fmt.Println("favored\" resources — here there are none).")
}

// e16: §6 opens with "The cost of moving a process dictates how frequently
// we are willing to move the process." Move a fixed computation from
// machine to machine at increasing frequency and measure the slowdown.
func e16() {
	const work = 500000
	baseline := func() demosmp.Time {
		c := cluster(demosmp.Options{Machines: 3})
		pid, _ := c.SpawnProgram(1, demosmp.CPUBound(work))
		c.Run()
		_, _, _ = c.ExitOf(pid)
		return c.Now()
	}()
	fmt.Println("| migration interval | migrations performed | completion time | slowdown |")
	fmt.Println("|-------------------:|---------------------:|----------------:|---------:|")
	fmt.Printf("| never | 0 | %v | 1.00x |\n", baseline)
	for _, interval := range []demosmp.Time{1_000_000, 300_000, 100_000, 30_000} {
		c := cluster(demosmp.Options{Machines: 3})
		pid, _ := c.SpawnProgram(1, demosmp.CPUBound(work))
		moves := 0
		dest := 2
		for {
			c.RunFor(interval)
			if _, _, done := c.ExitOf(pid); done {
				break
			}
			die(c.Migrate(pid, dest))
			moves++
			dest = dest%3 + 1
			c.RunFor(60_000) // let the move complete before the next tick
			if _, _, done := c.ExitOf(pid); done {
				break
			}
		}
		c.Run()
		e, _, _ := c.ExitOf(pid)
		if e.Code != demosmp.CPUBoundResult(work) {
			die(fmt.Errorf("E16 corrupted at interval %v", interval))
		}
		fmt.Printf("| %v | %d | %v | %.2fx |\n",
			interval, moves, c.Now(), float64(c.Now())/float64(baseline))
	}
	fmt.Println("\nEvery run produced the bit-exact result; the cost of mobility is pure")
	fmt.Println("time: a frozen window of one transfer per move. \"A smaller relocation")
	fmt.Println("cost means that the system has more opportunities to improve")
	fmt.Println("performance\" (§1).")
}

// f31/f41/f51: protocol traces matching the paper's figures.
func traceCluster() *demosmp.Cluster {
	return cluster(demosmp.Options{Machines: 3, TraceCap: 4096})
}

// printTrace prints the cluster's trace records of one category, in the
// canonical (time, machine, emission) order.
func printTrace(c *demosmp.Cluster, cat trace.Category) {
	for _, r := range c.TraceRecords() {
		if r.Cat() == cat {
			fmt.Println(r.String())
		}
	}
}

func f31() {
	c := traceCluster()
	pid, _ := c.SpawnProgram(1, demosmp.CPUBound(1<<20))
	c.RunFor(3000)
	die(c.Migrate(pid, 2))
	c.Run()
	fmt.Println("```")
	printTrace(c, trace.CatMigrate)
	fmt.Println("```")
}

func f41() {
	c := traceCluster()
	sink, _ := c.Spawn(3, kernel.SpawnSpec{Body: &workload.Sink{}})
	server, _ := c.Spawn(1, kernel.SpawnSpec{Body: &workload.Sink{}})
	die(c.Migrate(server, 2))
	c.Run()
	c.Kernel(3).GiveMessageTo(addr.At(server, 1), addr.At(sink, 3), []byte("x"))
	c.Run()
	fmt.Println("```")
	printTrace(c, trace.CatForward)
	fmt.Println("```")
}

func f51() {
	c := traceCluster()
	server, _ := c.Spawn(1, kernel.SpawnSpec{Program: workload.EchoServer(40)})
	c.Spawn(3, kernel.SpawnSpec{
		Program: workload.RequestClient(40),
		Links:   []link.Link{{Addr: addr.At(server, 1)}},
	})
	c.RunFor(5000)
	die(c.Migrate(server, 2))
	c.Run()
	fmt.Println("```")
	printTrace(c, trace.CatLinkUpdate)
	fmt.Println("```")
}
