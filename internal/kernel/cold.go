package kernel

import (
	"demosmp/internal/addr"
	"demosmp/internal/memory"
	"demosmp/internal/msg"
)

// coldState is the kernel's cold record: the counters in coldStats and
// every field a machine that only spawns, runs and exits jobs and exchanges
// user messages never reads or writes. A kernel holds it behind
// Kernel.coldRec, nil until its first use, so such a machine carries none
// of it (128 B of fields and 464 B of counters, in the 640-byte size class
// with Go's 8-byte header: TestColdRecordSizeClass). The rule for a new Kernel
// field: if a jobs-and-user-messages machine touches it, it sits inline in
// Kernel; otherwise it goes here, written through k.cold() and read through
// k.coldView(), which makes nothing. TestColdRecordMadeAtFirstUse holds a
// jobs-and-user-messages machine to no cold record.
type coldState struct {
	coldStats

	xfersIn  map[uint16]*inStream // inbound streams, keyed by locally-allocated xfer id
	moveOps  map[uint16]*moveOp   // outbound move-data writes awaiting completion
	nextXfer uint16               // the last xfer id allocated (newXferID)

	// The forwarder table (fwd), and per pid the stale sends per sender its
	// address absorbed (ledgerForward): emptied for the pid's next address,
	// dropped when the pid dies here or its address is reclaimed.
	fwds map[addr.ProcessID]fwd
	runs map[addr.ProcessID]map[addr.ProcessID]uint64

	// migFree recycles migration halves, with their region buffers,
	// region-pull stream and once-bound watchdog closures (DESIGN.md §7),
	// so a warm kernel migrates without growing the heap.
	migFree freelist[migration]
	// kinds interns body-kind strings decoded from resident records, so a
	// process bouncing between machines does not re-allocate its kind
	// string on every arrival.
	kinds map[string]string

	pendingLocate map[addr.ProcessID][]*msg.Message
	console       map[addr.ProcessID][]string
	// The latest MigrateDone reply addressed to this kernel and how many
	// arrived (self-initiated migrations: RequestMigrationOf).
	lastDone msg.MigrateDone
	dones    int

	// Fault plane (restart.go). stable simulates the §1 stable storage a
	// checkpoint survives a crash in; lostPIDs records processes a crash
	// wiped without a checkpoint (so invariant checks can tell "lost to a
	// crash" from "should still exist"). Restarts, in coldStats, counts
	// recoveries and gates the search fallback for orphaned forwarding
	// addresses.
	stable    map[addr.ProcessID][]byte
	lostPIDs  map[addr.ProcessID]bool
	faultHook func(kp KillPoint, pid addr.ProcessID)
}

// noCold is what a kernel without a cold record reads: every counter zero,
// every map nil. Nothing writes it; a delete from one of its nil maps is a
// no-op (dropStable).
var noCold coldState

// cold returns the kernel's cold record for writing, made at its first use.
// Every write to a cold field goes through it.
func (k *Kernel) cold() *coldState {
	if k.coldRec == nil {
		k.coldRec = new(coldState)
	}
	return k.coldRec
}

// coldView returns the cold record for reading without making it.
func (k *Kernel) coldView() *coldState {
	if k.coldRec == nil {
		return &noCold
	}
	return k.coldRec
}

// swapStore returns the store images page out to, made at the first image:
// a machine whose processes hold no image carries none.
func (k *Kernel) swapStore() *memory.Store {
	if k.swap == nil {
		k.swap = memory.NewStore(SwapCapacity)
	}
	return k.swap
}
