package kernel

import (
	"demosmp/internal/msg"
	"demosmp/internal/obs"
	"demosmp/internal/sim"
)

// Stats aggregates one kernel's activity. The experiment harness diffs
// copies taken around a scenario to produce the paper's cost rows.
//
// A field here is the counter's only declaration: SetObs adopts the struct
// with obs.SampleStruct, so every unsigned-integer field is the metric
// kernel.m<id>.<snake_case field> (tags override, see internal/obs/derive.go)
// and chaos.CheckRegistry audits all of them. This struct owns
// *protocol-level* counts — what the kernel decided to do; netw.Stats owns
// *wire-level* counts — what crossed the network. No number lives in both;
// TestStatsSingleSource checks that the two layers reconcile.
type Stats struct {
	// Process lifecycle.
	Spawned uint64
	Exited  uint64
	Crashes uint64 // process faults
	Kills   uint64

	// Scheduling.
	Slices      uint64
	CtxSwitches uint64
	CPUBusy     sim.Time `obs:"cpu_busy_us"`

	// Messaging.
	MsgsRouted   uint64 // messages submitted to routing on this kernel
	MsgsEnqueued uint64 // messages placed on local process queues
	MsgsHeld     uint64 // messages queued while a process was in migration
	DeadLetters  uint64 // messages for processes that no longer exist

	// Forwarding (§4).
	Forwarded           uint64 // messages re-routed via a forwarding address
	ForwardedPending    uint64 // step-6 queue forwards
	ForwardersInstalled uint64
	ForwardersReclaimed uint64 // via death-notice GC
	ForwarderBytes      uint64 `obs:",gauge"` // live forwarding-address storage on this kernel

	// Link updating (§5).
	LinkUpdatesSent    uint64 // special update messages emitted while forwarding
	LinkUpdatesApplied uint64 // update messages processed for a local sender
	LinksFixed         uint64 // individual link-table entries rewritten
	EagerUpdatesSent   uint64 // ablation broadcasts

	// Migration (§3, §6).
	MigrationsOut     uint64 // completed as source
	MigrationsIn      uint64 // completed as destination
	MigrationsRefused uint64
	MigrationsFailed  uint64
	Revived           uint64              // processes restored from checkpoints (§1 fault recovery)
	AdminRejected     uint64              // migration messages dropped: not from the half's peer, illegal at the half's step, or a duplicate Ask
	AdminSent         [msg.OpCount]uint64 // administrative messages sent, by op
	AdminBytes        uint64              // payload bytes of administrative messages sent

	// Move-data streams.
	DataPacketsSent uint64
	DataBytesSent   uint64
	AcksSent        uint64
	AcksReceived    uint64

	// Return-to-sender baseline (§4 alternative).
	Bounced        uint64 // OpNotDeliverable sent
	LocateRequests uint64
	Resubmitted    uint64 // bounced messages re-sent after a locate reply

	// Bounded buffers: overflow of a hard-capped per-PID buffer is
	// counted here rather than growing kernel memory.
	LocateDropped  uint64 // messages dropped at PendingLocateCap
	ConsoleDropped uint64 // console lines dropped at ConsoleLineCap

	// Fault plane (restart.go). Together with netw's fault counters these
	// make every lost message attributable: the chaos invariant checker
	// balances user sends against deliveries + dead letters + these.
	Restarts            uint64 // crash recoveries of this kernel
	CrashWipedMsgs      uint64 // queued messages destroyed by a crash
	CrashLostProcs      uint64 // processes wiped by a crash (before any revival)
	CheckpointsSaved    uint64 // checkpoints written to stable storage
	DroppedWhileCrashed uint64 // messages consumed while this kernel was down
	SearchForwards      uint64 // messages rerouted to a pid's creator machine
	SearchesSent        uint64 // search broadcasts for home-born pids
}

// AdminTotal sums administrative messages sent across all ops.
func (s *Stats) AdminTotal() uint64 {
	var n uint64
	for _, v := range s.AdminSent {
		n += v
	}
	return n
}

// MigrationReport is the per-migration cost breakdown assembled by the
// source kernel — the raw material for every row of §6. It is the ledger's
// record type: what OnReport receives is what Ledger.Add stores.
type MigrationReport = obs.MigrationRecord
