package kernel

import (
	"demosmp/internal/msg"
	"demosmp/internal/obs"
	"demosmp/internal/sim"
)

// Stats aggregates one kernel's activity. The experiment harness diffs
// copies taken around a scenario to produce the paper's cost rows.
//
// Stats is the public view; the kernel keeps its counters in two parts,
// split by who writes them, and Kernel.Stats assembles this struct from
// both. hotStats holds what the steady job and message paths write
// (lifecycle, scheduling, messaging) and sits inline in Kernel. coldStats
// holds everything else — forwarding, link updates, migration, move-data,
// return-to-sender, the bounded buffers and the fault plane — in the
// kernel's cold record (cold.go), made at its first use (Kernel.cold), so a
// machine that only runs jobs and exchanges user messages carries 88 B of
// counters, not 552. A new counter is a field here and a field of the same name, type
// and tag in hotStats or coldStats: hotStats only if a job-only machine
// writes it, coldStats otherwise, written through k.cold(). Stats() copies
// it and TestStatsSplitCoversEveryField fails until it does.
//
// Every unsigned-integer field is the metric kernel.m<id>.<snake_case
// field> (tags override, see internal/obs/derive.go): SetObs registers the
// kernel as one obs.Rows value, and AppendMetrics renders both parts with
// obs.AppendStruct at snapshot time; chaos.CheckRegistry re-derives every
// row from Stats() through the same AppendStruct. This struct owns
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
	MigrationsRefused uint64 // asks refused as destination (§3.2), and requests for a pid already migrating here
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
func (s *Stats) AdminTotal() uint64 { return adminTotal(&s.AdminSent) }

func adminTotal(sent *[msg.OpCount]uint64) uint64 {
	var n uint64
	for _, v := range sent {
		n += v
	}
	return n
}

// hotStats are the counters the steady job and message paths write: Stats'
// first eleven fields, inline in Kernel (88 B).
type hotStats struct {
	Spawned      uint64
	Exited       uint64
	Crashes      uint64
	Kills        uint64
	Slices       uint64
	CtxSwitches  uint64
	CPUBusy      sim.Time `obs:"cpu_busy_us"`
	MsgsRouted   uint64
	MsgsEnqueued uint64
	MsgsHeld     uint64
	DeadLetters  uint64
}

// coldStats are the rest of Stats, written only by migration, forwarding,
// link updates, move-data, return-to-sender, the bounded buffers and the
// fault plane. They are the counter part of the kernel's cold record
// (coldState, cold.go), nil until its first use.
type coldStats struct {
	Forwarded           uint64
	ForwardedPending    uint64
	ForwardersInstalled uint64
	ForwardersReclaimed uint64
	ForwarderBytes      uint64 `obs:",gauge"`

	LinkUpdatesSent    uint64
	LinkUpdatesApplied uint64
	LinksFixed         uint64
	EagerUpdatesSent   uint64

	MigrationsOut     uint64
	MigrationsIn      uint64
	MigrationsRefused uint64
	MigrationsFailed  uint64
	Revived           uint64
	AdminRejected     uint64
	AdminSent         [msg.OpCount]uint64
	AdminBytes        uint64

	DataPacketsSent uint64
	DataBytesSent   uint64
	AcksSent        uint64
	AcksReceived    uint64

	Bounced        uint64
	LocateRequests uint64
	Resubmitted    uint64

	LocateDropped  uint64
	ConsoleDropped uint64

	Restarts            uint64
	CrashWipedMsgs      uint64
	CrashLostProcs      uint64
	CheckpointsSaved    uint64
	DroppedWhileCrashed uint64
	SearchForwards      uint64
	SearchesSent        uint64
}

// Stats returns a copy of this kernel's counters, assembled from its hot
// and cold parts.
func (k *Kernel) Stats() Stats {
	h, c := &k.stats, k.coldView()
	return Stats{
		Spawned:      h.Spawned,
		Exited:       h.Exited,
		Crashes:      h.Crashes,
		Kills:        h.Kills,
		Slices:       h.Slices,
		CtxSwitches:  h.CtxSwitches,
		CPUBusy:      h.CPUBusy,
		MsgsRouted:   h.MsgsRouted,
		MsgsEnqueued: h.MsgsEnqueued,
		MsgsHeld:     h.MsgsHeld,
		DeadLetters:  h.DeadLetters,

		Forwarded:           c.Forwarded,
		ForwardedPending:    c.ForwardedPending,
		ForwardersInstalled: c.ForwardersInstalled,
		ForwardersReclaimed: c.ForwardersReclaimed,
		ForwarderBytes:      c.ForwarderBytes,

		LinkUpdatesSent:    c.LinkUpdatesSent,
		LinkUpdatesApplied: c.LinkUpdatesApplied,
		LinksFixed:         c.LinksFixed,
		EagerUpdatesSent:   c.EagerUpdatesSent,

		MigrationsOut:     c.MigrationsOut,
		MigrationsIn:      c.MigrationsIn,
		MigrationsRefused: c.MigrationsRefused,
		MigrationsFailed:  c.MigrationsFailed,
		Revived:           c.Revived,
		AdminRejected:     c.AdminRejected,
		AdminSent:         c.AdminSent,
		AdminBytes:        c.AdminBytes,

		DataPacketsSent: c.DataPacketsSent,
		DataBytesSent:   c.DataBytesSent,
		AcksSent:        c.AcksSent,
		AcksReceived:    c.AcksReceived,

		Bounced:        c.Bounced,
		LocateRequests: c.LocateRequests,
		Resubmitted:    c.Resubmitted,

		LocateDropped:  c.LocateDropped,
		ConsoleDropped: c.ConsoleDropped,

		Restarts:            c.Restarts,
		CrashWipedMsgs:      c.CrashWipedMsgs,
		CrashLostProcs:      c.CrashLostProcs,
		CheckpointsSaved:    c.CheckpointsSaved,
		DroppedWhileCrashed: c.DroppedWhileCrashed,
		SearchForwards:      c.SearchForwards,
		SearchesSent:        c.SearchesSent,
	}
}

// MigrationReport is the per-migration cost breakdown assembled by the
// source kernel — the raw material for every row of §6. It is the ledger's
// record type: what OnReport receives is what Ledger.Add stores.
type MigrationReport = obs.MigrationRecord
