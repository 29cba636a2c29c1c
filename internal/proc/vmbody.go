package proc

import (
	"fmt"

	"demosmp/internal/addr"
	"demosmp/internal/dvm"
	"demosmp/internal/link"
	"demosmp/internal/memory"
)

// VMKind is the registry kind of VM bodies.
const VMKind = "dvm"

// VMBody runs a DVM program. Its control state is the CPU snapshot; its
// program, data, and stack live in the process memory image, which the
// kernel moves during migration step 5.
type VMBody struct {
	vm dvm.VM
}

// NewVMBody returns a body that will start executing at entry once the
// kernel wires in the memory image.
func NewVMBody(entry uint32) *VMBody {
	b := &VMBody{}
	b.vm.CPU.PC = entry
	return b
}

// Kind implements Body.
func (b *VMBody) Kind() string { return VMKind }

// SetImage implements MemoryHolder. On fresh creation it also places the
// stack pointer at the top of the image; after a migration restore the
// restored SP is kept.
func (b *VMBody) SetImage(img *memory.Image) {
	b.vm.Mem = img
	if b.vm.CPU.SP == 0 {
		b.vm.CPU.SP = uint32(img.Size())
	}
}

// Step implements Body by running up to budget DVM instructions.
func (b *VMBody) Step(ctx Context, budget int) (int, Status) {
	if b.vm.Mem == nil {
		return 0, Status{State: Crashed, Err: fmt.Errorf("proc: VM body has no memory image")}
	}
	sys := &vmSyscalls{ctx: ctx}
	used, st := b.vm.Step(sys, budget)
	switch st {
	case dvm.Running, dvm.Yielded:
		return used, Status{State: Runnable}
	case dvm.Blocked:
		return used, Status{State: Blocked}
	case dvm.Halted:
		return used, Status{State: Exited, ExitCode: b.vm.CPU.ExitCode}
	default:
		return used, Status{State: Crashed, Err: b.vm.Fault}
	}
}

// Snapshot implements Body: the CPU registers are the whole control state.
func (b *VMBody) Snapshot() ([]byte, error) {
	return b.vm.CPU.Encode(nil), nil
}

// Restore implements Body.
func (b *VMBody) Restore(data []byte) error {
	cpu, rest, err := dvm.DecodeCPU(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("proc: %d trailing bytes in VM snapshot", len(rest))
	}
	b.vm.CPU = cpu
	return nil
}

// vmSyscalls adapts the kernel Context to the DVM trap interface.
type vmSyscalls struct {
	ctx Context
}

func (s *vmSyscalls) Send(l uint16, data []byte, carry ...uint16) error {
	ids := make([]link.ID, 0, len(carry))
	for _, c := range carry {
		if c != 0 {
			ids = append(ids, link.ID(c))
		}
	}
	return s.ctx.Send(link.ID(l), data, ids...)
}

func (s *vmSyscalls) Recv(max int) ([]byte, uint16, uint16, bool) {
	d, ok := s.ctx.Recv()
	if !ok {
		return nil, 0, 0, false
	}
	data := d.Body
	if len(data) > max {
		data = data[:max]
	}
	var carried uint16
	if len(d.Carried) > 0 {
		carried = uint16(d.Carried[0])
	}
	return data, carried, uint16(d.From.LastKnown), true
}

func (s *vmSyscalls) CreateLink(attrs uint16, areaOff, areaLen uint32) (uint16, error) {
	id, err := s.ctx.CreateLink(link.Attr(attrs), link.DataArea{Offset: areaOff, Length: areaLen})
	return uint16(id), err
}

func (s *vmSyscalls) DestroyLink(l uint16) error { return s.ctx.DestroyLink(link.ID(l)) }

func (s *vmSyscalls) PID() (uint16, uint16) {
	p := s.ctx.PID()
	return uint16(p.Creator), uint16(p.Local)
}

func (s *vmSyscalls) Now() uint64 { return uint64(s.ctx.Now()) }

func (s *vmSyscalls) Print(d []byte) { s.ctx.Print(d) }

func (s *vmSyscalls) MigrateSelf(machine uint16) error {
	return s.ctx.RequestMigration(addr.MachineID(machine))
}

func (s *vmSyscalls) Rand() uint32 { return s.ctx.Rand() }
