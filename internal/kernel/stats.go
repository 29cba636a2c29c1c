package kernel

import (
	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

// Stats aggregates one kernel's activity. The experiment harness diffs
// snapshots around a scenario to produce the paper's cost rows.
//
// Ownership rule (shared with the obs registry): this struct is the single
// source for *protocol-level* counts — what the kernel decided to do:
// messages routed/enqueued, admin messages and their payload bytes, data
// packets and acks initiated, forwards, link updates. The netw flat arrays
// are the single source for *wire-level* counts — what actually crossed the
// network: frames and wire bytes (header + payload) by kind, drops,
// retransmits. The registry samples each number from exactly one of the two
// owners and never mirrors a value into a second live location;
// chaos.CheckRegistry and the single-source soak test enforce that the
// layers reconcile (e.g. Σ DataPacketsSent == data frames on a lossless
// run) without either side keeping a duplicate.
//
// The companion discipline — single-releaser ownership of the pooled
// *message envelopes* these counters describe — no longer lives in prose:
// demoslint's ownership rule (DESIGN.md §8.1) machine-checks
// use-after-Put, double-Put, and unblessed retention on every build, with
// the reviewed retainers declared in-source via //demos:owner.
type Stats struct {
	// Process lifecycle.
	Spawned uint64
	Exited  uint64
	Crashes uint64 // process faults
	Kills   uint64

	// Scheduling.
	Slices      uint64
	CtxSwitches uint64
	CPUBusy     sim.Time

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
	ForwarderBytes      uint64 // live forwarding-address storage on this kernel

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
	Revived           uint64            // processes restored from checkpoints (§1 fault recovery)
	AdminSent         map[msg.Op]uint64 // administrative messages sent, by op
	AdminBytes        uint64            // payload bytes of administrative messages sent

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
	Undeliverable       uint64 // frames the network returned as undeliverable
	DroppedWhileCrashed uint64 // messages consumed while this kernel was down
	SearchForwards      uint64 // messages rerouted to a pid's creator machine
	SearchesSent        uint64 // search broadcasts for home-born pids
}

func newStats() Stats {
	return Stats{AdminSent: make(map[msg.Op]uint64)}
}

// Clone returns a deep copy.
func (s *Stats) Clone() Stats {
	c := *s
	c.AdminSent = make(map[msg.Op]uint64, len(s.AdminSent))
	for k, v := range s.AdminSent {
		c.AdminSent[k] = v
	}
	return c
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
// source kernel — the raw material for every row of §6.
type MigrationReport struct {
	PID  addr.ProcessID
	From addr.MachineID
	To   addr.MachineID

	Start sim.Time // step 1: removed from execution
	End   sim.Time // step 7 complete: source sent cleanup + done

	// State transfer cost (§6): the three data moves.
	MoveDataTransfers int // distinct move-data streams served (paper: 3)
	ProgramBytes      int
	ResidentBytes     int
	SwappableBytes    int
	DataPackets       int

	// Administrative cost (§6): control messages seen at the source
	// (sent or received), their payload bytes, and the smallest/largest
	// single payload (paper: "nine messages ... of 6–12 bytes each").
	AdminMsgs     int
	AdminBytes    int
	AdminMinBytes int
	AdminMaxBytes int

	// Messages that were waiting in the queue and were forwarded in
	// step 6.
	PendingForwarded int

	OK bool
}

// noteAdmin accounts one administrative message (sent or received) against
// the report: count, payload bytes, and the min/max single-payload range.
// It is the only mutator of these fields, so every §6 admin site stays
// consistent.
//
//demos:hotpath — called from sendAdmin: checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode in bench_hotpath_test.go.
func (r *MigrationReport) noteAdmin(payloadLen int) {
	r.AdminMsgs++
	r.AdminBytes += payloadLen
	if r.AdminMinBytes == 0 || payloadLen < r.AdminMinBytes {
		r.AdminMinBytes = payloadLen
	}
	if payloadLen > r.AdminMaxBytes {
		r.AdminMaxBytes = payloadLen
	}
}

// StateBytes returns the total bytes of the three data moves.
func (r MigrationReport) StateBytes() int {
	return r.ProgramBytes + r.ResidentBytes + r.SwappableBytes
}

// Latency returns the migration's duration as seen by the source kernel.
func (r MigrationReport) Latency() sim.Time { return r.End - r.Start }
