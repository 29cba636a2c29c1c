package kernel

import (
	"encoding/binary"
	"fmt"

	"demosmp/internal/addr"
	"demosmp/internal/trace"
)

// This file implements the paper's §1 fault-recovery idea: "If the
// information necessary to transport a process is saved in stable storage,
// it may be possible to 'migrate' a process from a processor that has
// crashed to a working one." A checkpoint is exactly the three migration
// payloads — resident record, swappable state, program image — behind a
// small header (encodeCheckpoint), over freeze's output (Checkpoint) or the
// regions a migration delivered (step 8's handoff). Revive on another kernel
// is migration steps 3-5 and 8 replayed from bytes, through the helpers
// those steps use (thaw, restartProc).

const checkpointMagic = 0x444D5043 // "DMPC"

// Checkpoint serializes a transportable copy of a local process. The
// process keeps running; the copy reflects its state at this instant
// (between scheduling slices, which is the only observable granularity).
func (k *Kernel) Checkpoint(pid addr.ProcessID) ([]byte, error) {
	p := k.lookup(pid)
	if p == nil {
		return nil, fmt.Errorf("kernel %v: no process %v", k.machine, pid)
	}
	switch p.state {
	case StateIncoming, StateInMigration, StateDead:
		return nil, fmt.Errorf("kernel %v: %v is %v; not checkpointable", k.machine, pid, p.state)
	}
	var f frozen
	if err := k.freeze(&f, p); err != nil {
		return nil, fmt.Errorf("kernel: checkpoint of %v: %w", pid, err)
	}
	return k.encodeCheckpoint(pid, p.state, &f), nil
}

// encodeCheckpoint is the one checkpoint encoder: a header naming pid and
// the state to revive into, then f's three regions.
func (k *Kernel) encodeCheckpoint(pid addr.ProcessID, state ProcState, f *frozen) []byte {
	swappable := f.swappableLen()
	b := make([]byte, 0, 4+addr.PIDWireSize+1+3*4+len(f.resident)+swappable+len(f.program))
	b = binary.LittleEndian.AppendUint32(b, checkpointMagic)
	b = addr.EncodePID(b, pid)
	b = append(b, byte(state))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.resident)))
	b = append(b, f.resident...)
	b = binary.LittleEndian.AppendUint32(b, uint32(swappable))
	b = append(append(b, f.swap...), f.ctl...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.program)))
	b = append(b, f.program...)
	k.trace(siteCheckpoint, fmt.Sprintf("%dB (resident %d, swappable %d, program %d)",
		len(b), len(f.resident), swappable, len(f.program)), trace.PID(pid))
	return b
}

// Revive instantiates a checkpointed process on this kernel, preserving
// its identity. Messages sent on old links will reach it here once their
// holders' link tables are updated — or immediately, if a forwarding
// address (or the old machine's return-to-sender bounce) can still point
// the way; after a crash, senders rely on the locate path or on new links.
func (k *Kernel) Revive(checkpoint []byte) (addr.ProcessID, error) {
	b := checkpoint
	if len(b) < 4+addr.PIDWireSize+1 || binary.LittleEndian.Uint32(b) != checkpointMagic {
		return addr.NilPID, fmt.Errorf("kernel: not a checkpoint")
	}
	b = b[4:]
	pid, b, err := addr.DecodePID(b)
	if err != nil {
		return addr.NilPID, err
	}
	state := ProcState(b[0])
	b = b[1:]
	var sec [3][]byte // resident, swappable, program: each behind its length
	for i := range sec {
		if len(b) < 4 || len(b)-4 < int(binary.LittleEndian.Uint32(b)) {
			return addr.NilPID, fmt.Errorf("kernel: truncated checkpoint")
		}
		n := 4 + int(binary.LittleEndian.Uint32(b))
		sec[i], b = b[4:n], b[n:]
	}
	resident, swappable, program := sec[0], sec[1], sec[2]

	if k.lookup(pid) != nil {
		return addr.NilPID, fmt.Errorf("kernel %v: %v already exists here", k.machine, pid)
	}
	if len(program) > 0 && k.cfg.MemCapacity > 0 && k.memUsed+len(program) > k.cfg.MemCapacity {
		return addr.NilPID, fmt.Errorf("kernel %v: out of memory for revival", k.machine)
	}
	p := k.getProcRec()
	p.id = pid
	if err := k.thaw(p, resident, swappable, program); err != nil {
		return addr.NilPID, err
	}
	if _, ok := k.coldView().fwds[pid]; ok {
		delete(k.cold().fwds, pid)
		k.cold().ForwarderBytes -= ForwarderWireSize
	}
	k.addProc(p)
	k.cold().Revived++
	k.trace(siteRevive, state.String(), trace.PID(pid), trace.Int(len(checkpoint)))
	k.restartProc(p, state)
	return pid, nil
}
