// Package core assembles a complete DEMOS/MP cluster: the event engine,
// the network, one kernel per machine, and the system processes —
// switchboard, process manager, memory scheduler, the four-process file
// system, and command interpreter (§2.3, Figure 2-3). It is the public
// face of the reproduction; the demosmp root package re-exports it.
package core

import (
	"fmt"
	"io"
	"math"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/dvm"
	"demosmp/internal/fs"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/memsched"
	"demosmp/internal/netw"
	"demosmp/internal/obs"
	"demosmp/internal/policy"
	"demosmp/internal/proc"
	"demosmp/internal/procmgr"
	"demosmp/internal/shell"
	"demosmp/internal/sim"
	"demosmp/internal/switchboard"
	"demosmp/internal/trace"
	"demosmp/internal/workload"
)

// ProgramFactory instantiates a named program for the shell / process
// manager spawn path.
type ProgramFactory func(args []string) (kernel.SpawnSpec, error)

// Options configures a cluster. The zero value plus Machines is usable.
type Options struct {
	// Machines is the number of processors (numbered 1..Machines).
	Machines int
	// Seed drives all simulation randomness.
	Seed int64
	// Net configures the inter-machine network.
	Net netw.Config
	// Kernel is the per-kernel configuration template (Tracer, Registry,
	// Machines and PMLink are filled in by the cluster).
	Kernel kernel.Config
	// TraceCap bounds each shard's trace ring (0 = default, 64 k records).
	TraceCap int
	// TraceSink, when set, receives every trace record as one text line.
	// Lines are written in batches — at round barriers and before
	// Run/RunFor return — each batch merged in (time, machine, per-machine
	// emission) order; the bytes are the same for every shard count.
	TraceSink io.Writer

	// Switchboard boots the name server on machine 1.
	Switchboard bool
	// PM boots the process manager on machine 1 running Policy
	// (nil = manual).
	PM     bool
	Policy policy.Policy
	// MemSched boots the memory scheduler on machine 1.
	MemSched bool
	// FS boots the four file system processes on machine 1, with the fs
	// package's default disk geometry and cache size.
	FS bool
	// Shell boots a command interpreter on machine 1 (requires PM and
	// Switchboard).
	Shell bool

	// Programs names programs spawnable via shell/PM.
	Programs map[string]ProgramFactory

	// Shards partitions machines round-robin across that many shard-local
	// engines synchronized by conservative lookahead (see DESIGN.md §11);
	// 0 means 1, and a count above Machines is clamped to it. There is one
	// runtime: every cluster delivers frames in the canonical order and
	// steps its engines through a sim.Group, so same-seed runs produce
	// bit-identical traces, counters and snapshots for any shard count,
	// lossless or lossy (LossRate > 0 arms the machine-anchored ARQ).
	Shards int
	// ShardParallel allows each shard's engine to run on its own goroutine
	// inside a round; the runtime does so for rounds dense enough to repay
	// the join and runs sparse ones inline (sim.Group) — a wall-clock choice
	// only; results are identical, including under chaos injection (the
	// injector keeps every fault's state on the shard that enforces it; see
	// internal/chaos).
	ShardParallel bool
}

// Cluster is a running DEMOS/MP system.
type Cluster struct {
	opts Options
	reg  *proc.Registry
	ks   []*kernel.Kernel // indexed by machine id; ks[0] is nil (machine 0 is reserved)

	// The runtime (shard.go): one engine, network, tracer and obs plane per
	// shard, stepped together by group. Registration is cold and the hot
	// paths pay only nil-checked histogram updates, so every cluster can
	// export a snapshot, a §6 ledger, and a timeline.
	now     sim.Time // cluster clock (set by Run/RunFor)
	shardOf []int    // machine id -> shard index
	engines []*sim.Engine
	nets    []*netw.Network
	trs     []*trace.Tracer
	regs    []*obs.Registry
	leds    []*obs.Ledger
	group   *sim.Group
	sinkBuf [][]trace.Record // per shard: records awaiting the next TraceSink flush
	// outboxes[from][to] holds the frames shard from has shipped to shard
	// to since the last barrier: written only by shard from inside a
	// round, drained only by barrier between rounds (shard.go).
	outboxes [][][]netw.RemoteFrame

	// System process identities (zero if not booted).
	SwitchboardPID addr.ProcessID
	PMPID          addr.ProcessID
	MemSchedPID    addr.ProcessID
	DiskPID        addr.ProcessID
	CachePID       addr.ProcessID
	FilePID        addr.ProcessID
	DirPID         addr.ProcessID
	ShellPID       addr.ProcessID

	pm *procmgr.Manager
}

// New builds and boots a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Machines < 1 {
		return nil, fmt.Errorf("core: need at least one machine")
	}
	if opts.Machines > math.MaxUint16 {
		return nil, fmt.Errorf("core: %d machines, at most %d: a machine id is 16 bits and 0 is reserved", opts.Machines, math.MaxUint16)
	}
	c := &Cluster{
		opts: opts,
		ks:   make([]*kernel.Kernel, opts.Machines+1),
	}
	c.reg = buildRegistry(opts)
	c.build()
	if err := c.boot(); err != nil {
		return nil, err
	}
	return c, nil
}

func machineList(n int) []addr.MachineID {
	out := make([]addr.MachineID, n)
	for i := range out {
		out[i] = addr.MachineID(i + 1)
	}
	return out
}

func buildRegistry(opts Options) *proc.Registry {
	reg := workload.Registry()
	reg.Register(switchboard.Kind, func() proc.Body { return switchboard.New() })
	reg.Register(procmgr.Kind, func() proc.Body { return procmgr.New(nil) })
	reg.Register(memsched.Kind, func() proc.Body { return memsched.New() })
	reg.Register(fs.DiskKind, func() proc.Body { return fs.NewDisk(fs.DiskGeometry{}) })
	reg.Register(fs.CacheKind, func() proc.Body { return fs.NewCache(0) })
	reg.Register(fs.FileKind, func() proc.Body { return fs.NewFileServer(0) })
	reg.Register(fs.DirKind, func() proc.Body { return fs.NewDir() })
	reg.Register(fs.ClientKind, func() proc.Body { return &fs.Client{} })
	reg.Register(shell.Kind, func() proc.Body { return shell.New() })
	return reg
}

// boot spawns the configured system processes and wires their links —
// Figure 2-3's system process structure.
func (c *Cluster) boot() error {
	m1 := addr.MachineID(1)
	if c.opts.Switchboard {
		pid, err := c.ks[m1].Spawn(kernel.SpawnSpec{Body: switchboard.New(), Privileged: true})
		if err != nil {
			return err
		}
		c.SwitchboardPID = pid
	}
	if c.opts.PM {
		c.pm = procmgr.New(c.opts.Policy)
		c.pm.SetMachines(machineList(c.opts.Machines))
		pid, err := c.ks[m1].Spawn(kernel.SpawnSpec{Body: c.pm, Privileged: true,
			Links: c.bornLinks()})
		if err != nil {
			return err
		}
		c.PMPID = pid
		for _, k := range c.kernels() {
			k.SetPMLink(link.Link{Addr: addr.At(pid, m1)})
		}
		c.pm.Note(pid, m1)
		c.register("procmgr", pid, m1)
		// The policy plane's counters live on the PM body; the registry
		// owning the PM's machine renders them, so merged snapshots carry
		// them exactly once.
		c.regs[c.shardOf[m1]].AddRows(policyRows{c.pm})
	}
	if c.opts.MemSched {
		pid, err := c.ks[m1].Spawn(kernel.SpawnSpec{Body: memsched.New(), Privileged: true})
		if err != nil {
			return err
		}
		c.MemSchedPID = pid
		c.notePM(pid, m1)
		c.register("memsched", pid, m1)
		if c.pm != nil {
			id, err := c.ks[m1].MintLinkTo(
				link.Link{Addr: addr.At(pid, m1)}, c.PMPID)
			if err != nil {
				return err
			}
			c.pm.MemSchedLink = id
		}
	}
	if c.opts.FS {
		if err := c.bootFS(); err != nil {
			return err
		}
	}
	if c.opts.Shell {
		if c.SwitchboardPID.IsNil() || c.PMPID.IsNil() {
			return fmt.Errorf("core: shell requires switchboard and PM")
		}
		pid, err := c.ks[m1].Spawn(kernel.SpawnSpec{Body: shell.New(), Privileged: true,
			Links: []link.Link{
				{Addr: addr.At(c.SwitchboardPID, m1)},
				{Addr: addr.At(c.PMPID, m1)},
			}})
		if err != nil {
			return err
		}
		c.ShellPID = pid
		c.notePM(pid, m1)
	}
	return nil
}

func (c *Cluster) bootFS() error {
	m1 := addr.MachineID(1)
	k := c.ks[m1]
	var err error
	c.DiskPID, err = k.Spawn(kernel.SpawnSpec{Body: fs.NewDisk(fs.DiskGeometry{})})
	if err != nil {
		return err
	}
	c.CachePID, err = k.Spawn(kernel.SpawnSpec{Body: fs.NewCache(0),
		Links: []link.Link{{Addr: addr.At(c.DiskPID, m1)}}})
	if err != nil {
		return err
	}
	c.FilePID, err = k.Spawn(kernel.SpawnSpec{Body: fs.NewFileServer(0),
		Links: []link.Link{{Addr: addr.At(c.CachePID, m1)}}})
	if err != nil {
		return err
	}
	c.DirPID, err = k.Spawn(kernel.SpawnSpec{Body: fs.NewDir(),
		Links: []link.Link{{Addr: addr.At(c.FilePID, m1)}}})
	if err != nil {
		return err
	}
	for _, pid := range []addr.ProcessID{c.DiskPID, c.CachePID, c.FilePID, c.DirPID} {
		c.notePM(pid, m1)
	}
	c.register("fs.disk", c.DiskPID, m1)
	c.register("fs.cache", c.CachePID, m1)
	c.register("fs.file", c.FilePID, m1)
	c.register("fs.dir", c.DirPID, m1)
	return nil
}

// bornLinks gives boot processes their switchboard link in slot 1 when the
// switchboard exists ("Links are the only connections a process has").
func (c *Cluster) bornLinks() []link.Link {
	if c.SwitchboardPID.IsNil() {
		return nil
	}
	return []link.Link{{Addr: addr.At(c.SwitchboardPID, 1)}}
}

// register publishes a service name in the switchboard.
func (c *Cluster) register(name string, pid addr.ProcessID, at addr.MachineID) {
	if c.SwitchboardPID.IsNil() {
		return
	}
	c.ks[1].GiveMessage(c.SwitchboardPID, addr.KernelAddr(1),
		switchboard.RegisterMsg(name), link.Link{Addr: addr.At(pid, at)})
}

func (c *Cluster) notePM(pid addr.ProcessID, at addr.MachineID) {
	if c.pm != nil {
		c.pm.Note(pid, at)
	}
}

// policyRows renders the PM's policy.* counters: procmgr does not import
// obs, so the cluster registers this owner for it.
type policyRows struct{ pm *procmgr.Manager }

func (p policyRows) AppendMetrics(dst []obs.Metric) []obs.Metric {
	return append(dst,
		obs.Metric{Name: "policy.migrations_ordered", Kind: "counter", Value: p.pm.MigrationsOrdered},
		obs.Metric{Name: "policy.decisions", Kind: "counter", Value: p.pm.PolicyDecisions},
		obs.Metric{Name: "policy.sweeps", Kind: "counter", Value: p.pm.PolicySweeps})
}

// kernels returns every kernel in machine order. The slice is the
// cluster's own table: callers only range over it.
func (c *Cluster) kernels() []*kernel.Kernel { return c.ks[1:] }

// --- accessors ---------------------------------------------------------------

// Engine returns shard 0's engine, the control shard: cluster-level
// drivers (samplers, OnFire observers) attach there. Per-machine events
// must go through EngineOf so they land on the machine's own shard.
func (c *Cluster) Engine() *sim.Engine { return c.engines[0] }

// Ledger returns the cluster's migration cost ledger (§6): one record per
// completed outbound migration, including post-completion forwarding and
// link-update attribution — a merged view over the per-shard ledgers
// (records stay live by pointer).
func (c *Cluster) Ledger() *obs.Ledger { return obs.MergeLedgers(c.leds...) }

// ObsSnapshot is the metrics registry stamped with the current simulated
// time: each shard's registry renders its row owners — every kernel, the
// network, and on the PM's shard the policy counters, all registered at
// build time — and the shards' name-sorted snapshots merge in one walk
// (values summed), so it is a complete cluster view.
func (c *Cluster) ObsSnapshot() obs.Snapshot {
	snaps := make([]obs.Snapshot, 0, len(c.regs))
	for _, r := range c.regs {
		snaps = append(snaps, r.Snapshot(c.now))
	}
	return obs.MergeSnapshots(uint64(c.now), snaps...)
}

// Kernel returns machine m's kernel, or nil if there is no machine m.
func (c *Cluster) Kernel(m int) *kernel.Kernel {
	if m < 1 || m >= len(c.ks) {
		return nil
	}
	return c.ks[m]
}

// Machines returns the machine count.
func (c *Cluster) Machines() int { return len(c.ks) - 1 }

// PM returns the process manager body (nil if not booted). Reading it is
// only safe between Run calls.
func (c *Cluster) PM() *procmgr.Manager { return c.pm }

// Run drives the simulation until no strong events remain on any shard.
// Afterwards Now() — and every engine's clock — is the timestamp of the
// last event fired, for every shard count. Quiescence is judged at round
// barriers, so weak events (periodic housekeeping) up to W-1 µs past the
// last strong event fire too.
func (c *Cluster) Run() {
	c.now = c.group.RunUntilIdle()
}

// RunFor advances the simulation by d microseconds: it fires every event
// up to Now()+d and leaves Now() — and every engine's clock — at exactly
// that target, whether or not work remains beyond it.
func (c *Cluster) RunFor(d sim.Time) {
	c.now += d
	if len(c.engines) == 1 {
		// Rounds never reorder one engine's events, so the result is the
		// same without them; the benchmark's pingpong workload runs here.
		c.barrier()
		c.engines[0].RunUntil(c.now)
		c.barrier()
		return
	}
	c.group.RunUntil(c.now)
}

// Now returns the simulated time the cluster has been run to.
func (c *Cluster) Now() sim.Time { return c.now }

// --- process operations --------------------------------------------------------

// Spawn creates a process from a spec on machine m.
func (c *Cluster) Spawn(m int, spec kernel.SpawnSpec) (addr.ProcessID, error) {
	k := c.Kernel(m)
	if k == nil {
		return addr.NilPID, fmt.Errorf("core: no machine %d", m)
	}
	pid, err := k.Spawn(spec)
	if err == nil {
		c.notePM(pid, addr.MachineID(m))
	}
	return pid, err
}

// SpawnProgram spawns a pre-assembled program on machine m.
func (c *Cluster) SpawnProgram(m int, p *dvm.Program, links ...link.Link) (addr.ProcessID, error) {
	return c.Spawn(m, kernel.SpawnSpec{Program: p, Links: links})
}

// SpawnFSClient spawns a scripted file system client on machine m.
func (c *Cluster) SpawnFSClient(m int, file string, rounds int, size uint32) (addr.ProcessID, error) {
	if c.DirPID.IsNil() {
		return addr.NilPID, fmt.Errorf("core: file system not booted")
	}
	return c.Spawn(m, kernel.SpawnSpec{
		Body:      fs.NewClient(file, rounds, size),
		ImageSize: int(size),
		Links: []link.Link{
			{Addr: addr.At(c.DirPID, 1)},
			{Addr: addr.At(c.FilePID, 1)},
		},
	})
}

// Locate scans the cluster for the machine currently hosting pid.
func (c *Cluster) Locate(pid addr.ProcessID) (addr.MachineID, bool) {
	for _, k := range c.kernels() {
		if info, ok := k.Process(pid); ok && info.State != kernel.StateForwarder {
			return k.Machine(), true
		}
	}
	return addr.NoMachine, false
}

// Migrate moves pid to machine dest. With a process manager booted, the
// order flows through it (so its location table stays current); otherwise
// machine 1's kernel acts as the manager.
func (c *Cluster) Migrate(pid addr.ProcessID, dest int) error {
	at, ok := c.Locate(pid)
	if !ok {
		return fmt.Errorf("core: process %v not found", pid)
	}
	if c.pm != nil {
		c.ks[1].GiveMessage(c.PMPID, addr.KernelAddr(1),
			procmgr.CmdMigrate(pid, addr.MachineID(dest)))
		return nil
	}
	c.ks[at].RequestMigrationOf(addr.At(pid, at), addr.MachineID(dest))
	return nil
}

// Evict asks the process manager to move pid to any other machine,
// retrying across candidates if destinations refuse (§3.2).
func (c *Cluster) Evict(pid addr.ProcessID) error {
	if c.pm == nil {
		return fmt.Errorf("core: eviction requires a process manager")
	}
	c.ks[1].GiveMessage(c.PMPID, addr.KernelAddr(1), procmgr.CmdEvict(pid))
	return nil
}

// ExitOf scans the cluster for pid's exit record.
func (c *Cluster) ExitOf(pid addr.ProcessID) (kernel.ExitInfo, addr.MachineID, bool) {
	for _, k := range c.kernels() {
		if e, ok := k.Exit(pid); ok {
			return e, k.Machine(), true
		}
	}
	return kernel.ExitInfo{}, addr.NoMachine, false
}

// Console concatenates pid's console lines from every machine it ran on.
func (c *Cluster) Console(pid addr.ProcessID) []string {
	var out []string
	for _, k := range c.kernels() {
		out = append(out, k.Console(pid)...)
	}
	return out
}

// ShellCommand sends a command line to the booted shell.
func (c *Cluster) ShellCommand(line string) error {
	if c.ShellPID.IsNil() {
		return fmt.Errorf("core: shell not booted")
	}
	return c.ks[1].GiveMessage(c.ShellPID, addr.KernelAddr(1), shell.CommandMsg(line))
}

// --- statistics ----------------------------------------------------------------

// Stats aggregates cluster-wide counters.
type Stats struct {
	PerKernel map[addr.MachineID]kernel.Stats
	Net       netw.Stats
}

// TotalAdmin sums administrative messages across kernels.
func (s Stats) TotalAdmin() uint64 {
	var n uint64
	for _, ks := range s.PerKernel {
		n += ks.AdminTotal()
	}
	return n
}

// TotalForwarded sums forwarded messages across kernels.
func (s Stats) TotalForwarded() uint64 {
	var n uint64
	for _, ks := range s.PerKernel {
		n += ks.Forwarded
	}
	return n
}

// TotalLinkUpdates sums link-update messages across kernels.
func (s Stats) TotalLinkUpdates() uint64 {
	var n uint64
	for _, ks := range s.PerKernel {
		n += ks.LinkUpdatesSent
	}
	return n
}

// TotalMigrations sums completed source-side migrations.
func (s Stats) TotalMigrations() uint64 {
	var n uint64
	for _, ks := range s.PerKernel {
		n += ks.MigrationsOut
	}
	return n
}

// Stats snapshots every kernel and the network (merged across shards).
func (c *Cluster) Stats() Stats {
	s := Stats{PerKernel: map[addr.MachineID]kernel.Stats{}, Net: c.NetStats()}
	for _, k := range c.kernels() {
		s.PerKernel[k.Machine()] = k.Stats()
	}
	return s
}

// Reports collects migration reports from every kernel, ordered by start
// time.
func (c *Cluster) Reports() []kernel.MigrationReport {
	var out []kernel.MigrationReport
	for _, k := range c.kernels() {
		out = append(out, k.Reports()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
