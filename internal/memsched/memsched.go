// Package memsched implements the DEMOS/MP memory scheduler: the system
// process that, together with the process manager, "allocate[s] and keep[s]
// track of usage for system resources such as the CPU, real memory, etc."
// (§2.3). The process manager forwards it the kernels' load reports and
// consults it for placement: which machine can best absorb a process of a
// given memory footprint.
package memsched

import (
	"encoding/binary"
	"fmt"
	"sort"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
)

// Kind is the registry name of the memory scheduler body.
const Kind = "memsched"

// Request opcodes.
const (
	opBestFit = 'B' // bytes(4); carries a reply link; reply: machine(2)
	opStat    = '?' // carries a reply link; reply: text
)

// BestFitMsg builds a placement query for a process of size bytes.
func BestFitMsg(size uint32) []byte {
	b := []byte{opBestFit}
	return binary.LittleEndian.AppendUint32(b, size)
}

// ParseBestFit decodes a best-fit reply.
func ParseBestFit(body []byte) (addr.MachineID, error) {
	if len(body) < 2 {
		return addr.NoMachine, fmt.Errorf("memsched: short reply")
	}
	return addr.MachineID(binary.LittleEndian.Uint16(body)), nil
}

// Scheduler is the memory scheduler body.
type Scheduler struct {
	// UsedKB is the latest memory usage per machine.
	UsedKB map[addr.MachineID]uint32
	// Queries counts best-fit requests served.
	Queries uint64
}

// New returns an empty scheduler.
func New() *Scheduler {
	return &Scheduler{UsedKB: make(map[addr.MachineID]uint32)}
}

// Kind implements proc.Body.
func (s *Scheduler) Kind() string { return Kind }

// Step implements proc.Body.
func (s *Scheduler) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		if d.Op == msg.OpLoadReport {
			if rep, err := msg.DecodeLoadReport(d.Body); err == nil {
				s.UsedKB[rep.Machine] = rep.MemUsedKB
			}
			continue
		}
		if len(d.Body) < 1 {
			continue
		}
		switch d.Body[0] {
		case opBestFit:
			if len(d.Carried) == 0 {
				continue
			}
			s.Queries++
			m := s.bestFit()
			reply := binary.LittleEndian.AppendUint16(nil, uint16(m))
			ctx.Send(d.Carried[0], reply)
		case opStat:
			if len(d.Carried) == 0 {
				continue
			}
			ctx.Send(d.Carried[0], []byte(s.statText()))
		}
	}
}

// bestFit returns the machine with the least memory in use.
func (s *Scheduler) bestFit() addr.MachineID {
	best := addr.NoMachine
	var bestUsed uint32
	for _, m := range s.machines() {
		used := s.UsedKB[m]
		if best == addr.NoMachine || used < bestUsed {
			best, bestUsed = m, used
		}
	}
	return best
}

func (s *Scheduler) machines() []addr.MachineID {
	out := make([]addr.MachineID, 0, len(s.UsedKB))
	for m := range s.UsedKB {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *Scheduler) statText() string {
	t := ""
	for _, m := range s.machines() {
		t += fmt.Sprintf("%v mem=%dKB\n", m, s.UsedKB[m])
	}
	return t
}

// Snapshot implements proc.Body.
func (s *Scheduler) Snapshot() ([]byte, error) { return proc.Snapshot(s) }

// Restore implements proc.Body.
func (s *Scheduler) Restore(data []byte) error { return proc.Restore(s, data) }

var _ proc.Body = (*Scheduler)(nil)
