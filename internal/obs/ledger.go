package obs

import (
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/sim"
)

// MigrationRecord is the per-migration cost breakdown, one row of the
// paper's §6 measurements, and the one type for it: the source kernel fills
// the transfer and administrative fields as the protocol runs, reports the
// record (kernel.MigrationReport is this type) and hands it to the ledger at
// step 7. The residual-dependency fields (forwards absorbed, link updates,
// convergence) keep growing afterwards as stale senders hit the forwarding
// address, so the ledger hands out its stored record's index and the
// forwarding address keeps it for post-completion attribution (At).
type MigrationRecord struct {
	PID  addr.ProcessID `json:"pid"`
	From addr.MachineID `json:"from"`
	To   addr.MachineID `json:"to"`

	Start sim.Time `json:"start_us"` // step 1: removed from execution
	End   sim.Time `json:"end_us"`   // step 7: cleanup + done sent

	// State transfer (§6): the three move-data transfers.
	MoveDataTransfers int `json:"move_data_transfers"` // distinct MoveDataReq streams (paper: 3)
	ProgramBytes      int `json:"program_bytes"`
	ResidentBytes     int `json:"resident_bytes"`
	SwappableBytes    int `json:"swappable_bytes"`
	DataPackets       int `json:"data_packets"`

	// Administrative messages seen at the source, sent or received
	// (paper: 9 messages of 6–12 bytes).
	AdminMsgs     int `json:"admin_msgs"`
	AdminBytes    int `json:"admin_bytes"`
	AdminMinBytes int `json:"admin_min_bytes"`
	AdminMaxBytes int `json:"admin_max_bytes"`

	// Residual dependencies (§4/§5): queue forwards at step 6, then
	// post-completion traffic absorbed by the forwarding address.
	PendingForwarded    int    `json:"pending_forwarded"`
	ForwardsAbsorbed    uint64 `json:"forwards_absorbed"`
	LinkUpdatesSent     uint64 `json:"link_updates_sent"`
	ConvergenceForwards uint64 `json:"convergence_forwards"` // worst stale-sends by one sender (paper: 1–2)

	OK bool `json:"ok"`
}

// NoteAdmin accounts one administrative message (sent or received) against
// the record: count, payload bytes, and the min/max single-payload range.
// It is the only mutator of these fields, so every §6 admin site stays
// consistent.
//
//demos:hotpath — called from kernel sendAdmin: checked by demoslint (hotpathalloc); dynamic guard: TestHotPathZeroAlloc/admin-encode in bench_hotpath_test.go.
func (r *MigrationRecord) NoteAdmin(payloadLen int) {
	r.AdminMsgs++
	r.AdminBytes += payloadLen
	if r.AdminMinBytes == 0 || payloadLen < r.AdminMinBytes {
		r.AdminMinBytes = payloadLen
	}
	if payloadLen > r.AdminMaxBytes {
		r.AdminMaxBytes = payloadLen
	}
}

// FreezeMicros is the freeze time — how long the process was removed from
// execution, in simulated microseconds.
func (r *MigrationRecord) FreezeMicros() sim.Time { return r.End - r.Start }

// BytesMoved is the total payload of the three state transfers.
func (r *MigrationRecord) BytesMoved() int {
	return r.ProgramBytes + r.ResidentBytes + r.SwappableBytes
}

// Ledger collects migration records for a cluster, or for one shard of it,
// and is the one store of each record: source kernels add them at step 7,
// mutate them afterwards through the indices the forwarding addresses hold,
// and read their own back for Kernel.Reports; all reads are cold. Records
// sit in chunks of ledgerChunk that never move, so a record costs no
// allocation of its own.
type Ledger struct {
	chunks [][]MigrationRecord // never reallocated: Add opens a new one when the last is full
}

// ledgerChunk is how many records one chunk of a Ledger holds (~8.5 KB).
const ledgerChunk = 64

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Add stores a record and returns its index for later attribution
// (forward/link-update accounting on the source, through At). The index
// holds no pointer, so a table of them costs the collector no scan.
func (l *Ledger) Add(rec MigrationRecord) uint32 {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		l.chunks = append(l.chunks, make([]MigrationRecord, 0, ledgerChunk))
		last++
	}
	c := append(l.chunks[last], rec)
	l.chunks[last] = c
	return uint32(last*ledgerChunk + len(c) - 1)
}

// At returns the stored record Add returned index i for. A chunk holds at
// most ledgerChunk records, so i names its chunk and its place in it.
func (l *Ledger) At(i uint32) *MigrationRecord {
	return &l.chunks[i/ledgerChunk][i%ledgerChunk]
}

// From returns copies of the records machine m added as the source, in the
// order it added them, as they stand now.
func (l *Ledger) From(m addr.MachineID) []MigrationRecord {
	var out []MigrationRecord
	for _, c := range l.chunks {
		for i := range c {
			if c[i].From == m {
				out = append(out, c[i])
			}
		}
	}
	return out
}

// Records returns copies of every record, sorted by (Start, PID) so the
// order is deterministic regardless of which kernel finished first.
func (l *Ledger) Records() []MigrationRecord {
	out := make([]MigrationRecord, 0, ledgerChunk*len(l.chunks))
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].PID.Creator != out[j].PID.Creator {
			return out[i].PID.Creator < out[j].PID.Creator
		}
		return out[i].PID.Local < out[j].PID.Local
	})
	return out
}
