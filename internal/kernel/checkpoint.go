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
// payloads — resident record, swappable state, program image — with a
// small header: Checkpoint is freeze (migrate.go) plus that header, and
// Revive on another kernel is migration steps 3-5 and 8 replayed from bytes
// instead of from data-move streams, through the helpers those steps use
// (displaceForwarder, thaw, restartProc).

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
	case StateForwarder, StateIncoming, StateInMigration, StateDead:
		return nil, fmt.Errorf("kernel %v: %v is %v; not checkpointable", k.machine, pid, p.state)
	}
	var f frozen
	if err := freeze(&f, p); err != nil {
		return nil, fmt.Errorf("kernel: checkpoint of %v: %w", pid, err)
	}
	swappable := f.swappableLen()

	b := make([]byte, 0, 4+addr.PIDWireSize+1+3*4+len(f.resident)+swappable+len(f.program))
	b = binary.LittleEndian.AppendUint32(b, checkpointMagic)
	b = addr.EncodePID(b, pid)
	b = append(b, byte(p.state)) // the state to revive into
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.resident)))
	b = append(b, f.resident...)
	b = binary.LittleEndian.AppendUint32(b, uint32(swappable))
	b = append(append(b, f.swap...), f.ctl...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.program)))
	b = append(b, f.program...)
	k.trace(siteCheckpoint, fmt.Sprintf("%dB (resident %d, swappable %d, program %d)",
		len(b), len(f.resident), swappable, len(f.program)), trace.PID(pid))
	return b, nil
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
	next := func() ([]byte, error) {
		if len(b) < 4 {
			return nil, fmt.Errorf("kernel: truncated checkpoint")
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if len(b) < n {
			return nil, fmt.Errorf("kernel: truncated checkpoint section")
		}
		sec := b[:n]
		b = b[n:]
		return sec, nil
	}
	resident, err := next()
	if err != nil {
		return addr.NilPID, err
	}
	swappable, err := next()
	if err != nil {
		return addr.NilPID, err
	}
	program, err := next()
	if err != nil {
		return addr.NilPID, err
	}

	if old := k.lookup(pid); old != nil && old.state != StateForwarder {
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
	if fwd := k.displaceForwarder(pid); fwd != nil {
		k.putProcRec(fwd)
	}
	k.addProc(p)
	k.cold().Revived++
	k.trace(siteRevive, state.String(), trace.PID(pid), trace.Int(len(checkpoint)))
	k.restartProc(p, state)
	return pid, nil
}
