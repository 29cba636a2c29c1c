// Package demosmp is a from-scratch reproduction of "Process Migration in
// DEMOS/MP" (Powell & Miller, SOSP 1983): a simulated message-based
// distributed operating system in which a process can be moved between
// processors during execution — with continuous access to all its
// resources, correct delivery of every message, and message paths that are
// lazily updated to the process's new location.
//
// The cluster it builds contains everything the paper describes: per-node
// kernels with link-based communication (including DELIVERTOKERNEL links
// and the move-data facility), the system server processes (switchboard,
// process manager, memory scheduler, the four-process file system, and a
// command interpreter), the 8-step migration mechanism, forwarding
// addresses, and the link-update protocol. See DESIGN.md for the system
// inventory and EXPERIMENTS.md for the paper-vs-measured results.
//
// Quickstart:
//
//	c, err := demosmp.New(demosmp.Options{Machines: 3, Switchboard: true, PM: true})
//	if err != nil { ... }
//	pid, _ := c.SpawnProgram(1, demosmp.CPUBound(100000))
//	c.RunFor(5000)          // let it get going
//	c.Migrate(pid, 2)       // move it mid-computation
//	c.Run()                 // run to completion
//	exit, machine, _ := c.ExitOf(pid) // same answer, new machine
package demosmp

import (
	"demosmp/internal/addr"
	"demosmp/internal/core"
	"demosmp/internal/dvm"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/netw"
	"demosmp/internal/policy"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// Core cluster types.
type (
	// Cluster is a running simulated DEMOS/MP system.
	Cluster = core.Cluster
	// Options configures a cluster; see New.
	Options = core.Options
	// ProgramFactory builds named programs for the shell spawn path.
	ProgramFactory = core.ProgramFactory
	// Stats aggregates cluster-wide counters.
	Stats = core.Stats
)

// Identity and messaging types.
type (
	// MachineID names a processor (numbered from 1).
	MachineID = addr.MachineID
	// ProcessID is the immutable system-wide process identity.
	ProcessID = addr.ProcessID
	// ProcessAddr pairs a ProcessID with its last known machine.
	ProcessAddr = addr.ProcessAddr
	// Link is a capability-like one-way message path.
	Link = link.Link
	// Time is simulated microseconds.
	Time = sim.Time
)

// Kernel-level types surfaced for experiment code.
type (
	// KernelConfig tunes per-kernel behavior (quantum, costs, the
	// forwarding mode, eager-update ablation, ...).
	KernelConfig = kernel.Config
	// SpawnSpec describes a process to create.
	SpawnSpec = kernel.SpawnSpec
	// MigrationReport is the per-migration cost breakdown of paper §6.
	MigrationReport = kernel.MigrationReport
	// NetConfig tunes the network model.
	NetConfig = netw.Config
	// Program is an assembled DVM program.
	Program = dvm.Program
)

// Forwarding modes (paper §4).
const (
	// ModeForward leaves forwarding addresses — the paper's design.
	ModeForward = kernel.ModeForward
	// ModeReturnToSender is the rejected alternative: bounce
	// undeliverable messages to the sending kernel.
	ModeReturnToSender = kernel.ModeReturnToSender
)

// New builds and boots a cluster.
func New(opts Options) (*Cluster, error) { return core.New(opts) }

// Assemble translates DVM assembly into a runnable Program.
func Assemble(src string) (*Program, error) { return dvm.Assemble(src) }

// Workload generators for experiments and examples.
var (
	// CPUBound returns a compute-only program of n iterations.
	CPUBound = workload.CPUBound
	// CPUBoundSized pads the program image to a target size.
	CPUBoundSized = workload.CPUBoundSized
	// CPUBoundResult predicts CPUBound's exit code.
	CPUBoundResult = workload.CPUBoundResult
	// EchoServer answers n requests on their carried reply links.
	EchoServer = workload.EchoServer
	// RequestClient performs n request/reply exchanges on link 1.
	RequestClient = workload.RequestClient
	// SelfMigrator requests its own migration mid-computation.
	SelfMigrator = workload.SelfMigrator
	// VMFileClient is a user program in DVM assembly that does real
	// file I/O through the four-process file system.
	VMFileClient = workload.VMFileClient
)

// LinkTo builds a link addressing pid at its (last known) machine — the
// raw material for SpawnSpec initial links.
func LinkTo(pid ProcessID, at MachineID) Link {
	return Link{Addr: addr.At(pid, at)}
}

// Migration policies (our implementations of the decision rules the paper
// left open; §3.1 and §7).
var (
	// NewThresholdPolicy balances CPU load with hysteresis.
	NewThresholdPolicy = policy.NewThreshold
	// NewCommAffinityPolicy moves processes toward their main
	// communication partners: the affinity-aware policy with migration
	// priced at zero and no destination too busy to take a process.
	NewCommAffinityPolicy = policy.NewCommAffinity
	// NewDrainPolicy evacuates a dying processor.
	NewDrainPolicy = policy.NewDrain
	// NewQueueDepthPolicy balances on ready-queue depth — it sees
	// backlog even when every CPU reads 100%.
	NewQueueDepthPolicy = policy.NewQueueDepth
	// NewMemoryPressurePolicy relieves machines running out of memory.
	NewMemoryPressurePolicy = policy.NewMemoryPressure
	// NewAffinityAwarePolicy co-locates communication partners only when
	// the §6 cost model says the move pays for itself.
	NewAffinityAwarePolicy = policy.NewAffinityAware
	// NewCompositePolicy merges several policies under per-rule weights.
	NewCompositePolicy = policy.NewComposite
	// DefaultMigrationCostModel is the §6-seeded migration cost model.
	DefaultMigrationCostModel = policy.DefaultCostModel
)

// Policy-plane types surfaced for experiment code.
type (
	// MigrationCostModel prices a migration in simulated microseconds.
	MigrationCostModel = policy.CostModel
	// PolicyRule is one weighted member of a composite policy.
	PolicyRule = policy.Rule
)
