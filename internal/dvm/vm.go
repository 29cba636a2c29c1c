package dvm

import (
	"encoding/binary"
	"fmt"
)

// NumRegs is the number of general registers.
const NumRegs = 8

// Mem is the VM's view of its process memory image; the code segment starts
// at address 0, with data above it and the stack at the top growing down.
// memory.Image satisfies this interface.
type Mem interface {
	ReadAt(b []byte, off int) error
	WriteAt(b []byte, off int) error
	Size() int
}

// Status is the result of a Step call.
type Status uint8

const (
	// Running means the instruction budget was exhausted mid-program.
	Running Status = iota
	// Yielded means the program voluntarily gave up its quantum.
	Yielded
	// Blocked means the program is waiting in a receive; re-Step it when
	// a message arrives. PC still points at the SYS instruction, so the
	// wait survives migration unchanged ("the process will be in the
	// same state when it reaches its destination processor", §3.1).
	Blocked
	// Halted means the program exited; code in CPU.ExitCode.
	Halted
	// Faulted means the program hit an illegal instruction, address, or
	// arithmetic fault; details in VM.Fault.
	Faulted
)

func (s Status) String() string {
	switch s {
	case Running:
		return "running"
	case Yielded:
		return "yielded"
	case Blocked:
		return "blocked"
	case Halted:
		return "halted"
	case Faulted:
		return "faulted"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Flag bits.
const (
	flagZ = 1 << 0 // last comparison was equal
	flagN = 1 << 1 // last comparison was negative
)

// CPU is the register state of a DVM program: the portion of the process
// state that travels in the swappable state during migration.
type CPU struct {
	R        [NumRegs]int32
	PC       uint32 // byte address of the next instruction
	SP       uint32 // stack pointer; grows down from the top of the image
	Flags    uint8
	ExitCode int32
	Steps    uint64 // instructions executed (accounting)
}

// CPUWireSize is the encoded size of a CPU snapshot.
const CPUWireSize = NumRegs*4 + 4 + 4 + 1 + 4 + 8

// Encode appends the CPU snapshot to b.
func (c *CPU) Encode(b []byte) []byte {
	for _, r := range c.R {
		b = binary.LittleEndian.AppendUint32(b, uint32(r))
	}
	b = binary.LittleEndian.AppendUint32(b, c.PC)
	b = binary.LittleEndian.AppendUint32(b, c.SP)
	b = append(b, c.Flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(c.ExitCode))
	b = binary.LittleEndian.AppendUint64(b, c.Steps)
	return b
}

// DecodeCPU parses a CPU snapshot from the front of b, returning the rest.
func DecodeCPU(b []byte) (CPU, []byte, error) {
	var c CPU
	if len(b) < CPUWireSize {
		return c, b, fmt.Errorf("dvm: short CPU snapshot: %d bytes", len(b))
	}
	for i := range c.R {
		c.R[i] = int32(binary.LittleEndian.Uint32(b))
		b = b[4:]
	}
	c.PC = binary.LittleEndian.Uint32(b)
	c.SP = binary.LittleEndian.Uint32(b[4:])
	c.Flags = b[8]
	c.ExitCode = int32(binary.LittleEndian.Uint32(b[9:]))
	c.Steps = binary.LittleEndian.Uint64(b[13:])
	return c, b[21:], nil
}

// Syscalls is the kernel-call interface the hosting kernel provides to a
// running program. Every method corresponds to a SYS trap.
type Syscalls interface {
	// Send transmits data over link l, optionally carrying other links
	// (zero ids are skipped).
	Send(l uint16, data []byte, carry ...uint16) error
	// Recv returns the next queued message, or ok=false to block the
	// process. max bounds the data copied out.
	Recv(max int) (data []byte, carried uint16, senderMachine uint16, ok bool)
	// CreateLink makes a new link addressing this process.
	CreateLink(attrs uint16, areaOff, areaLen uint32) (uint16, error)
	// DestroyLink removes link l from the process's table.
	DestroyLink(l uint16) error
	// PID returns the process identity (creating machine, local uid).
	PID() (uint16, uint16)
	// Now returns the simulated time in microseconds.
	Now() uint64
	// Print writes debug output to the trace console.
	Print(data []byte)
	// MigrateSelf asks the process manager to migrate this process
	// ("It is of course possible for a process to request its own
	// migration", §3.1).
	MigrateSelf(machine uint16) error
	// Rand returns deterministic pseudo-randomness.
	Rand() uint32
}

// VM executes a DVM program against a memory image and a syscall handler.
type VM struct {
	CPU   CPU
	Mem   Mem
	Fault error // set when Step returns Faulted
}

func (v *VM) fault(format string, args ...any) Status {
	v.Fault = fmt.Errorf("dvm: %s (pc=%d)", fmt.Sprintf(format, args...), v.CPU.PC)
	return Faulted
}

func (v *VM) read32(a uint32) (int32, error) {
	var b [4]byte
	if err := v.Mem.ReadAt(b[:], int(a)); err != nil {
		return 0, err
	}
	return int32(binary.LittleEndian.Uint32(b[:])), nil
}

func (v *VM) write32(a uint32, x int32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(x))
	return v.Mem.WriteAt(b[:], int(a))
}

func (v *VM) push(x int32) error {
	if v.CPU.SP < 4 {
		return fmt.Errorf("stack overflow")
	}
	v.CPU.SP -= 4
	return v.write32(v.CPU.SP, x)
}

func (v *VM) pop() (int32, error) {
	x, err := v.read32(v.CPU.SP)
	if err != nil {
		return 0, fmt.Errorf("stack underflow: %w", err)
	}
	v.CPU.SP += 4
	return x, nil
}

func (v *VM) setFlags(d int64) {
	v.CPU.Flags = 0
	if d == 0 {
		v.CPU.Flags |= flagZ
	}
	if d < 0 {
		v.CPU.Flags |= flagN
	}
}

// Step executes up to budget instructions. It returns the number actually
// executed and the resulting status. A Blocked return leaves PC on the SYS
// instruction so the receive retries on the next Step — this is what makes
// a blocked process migratable without special cases.
func (v *VM) Step(sys Syscalls, budget int) (int, Status) {
	cpu := &v.CPU
	used := 0
	var ibuf [InstrSize]byte
	for used < budget {
		if err := v.Mem.ReadAt(ibuf[:], int(cpu.PC)); err != nil {
			return used, v.fault("instruction fetch: %v", err)
		}
		in, err := DecodeInstr(ibuf[:])
		if err != nil {
			return used, v.fault("%v", err)
		}
		next := cpu.PC + InstrSize
		used++
		cpu.Steps++

		switch in.Op {
		case NOP:
		case HALT:
			cpu.ExitCode = cpu.R[0]
			return used, Halted
		case MOVI:
			cpu.R[in.A] = in.Imm
		case MOV:
			cpu.R[in.A] = cpu.R[in.B]
		case ADD:
			cpu.R[in.A] = cpu.R[in.B] + cpu.R[in.C]
		case SUB:
			cpu.R[in.A] = cpu.R[in.B] - cpu.R[in.C]
		case MUL:
			cpu.R[in.A] = cpu.R[in.B] * cpu.R[in.C]
		case DIV:
			if cpu.R[in.C] == 0 {
				return used, v.fault("division by zero")
			}
			cpu.R[in.A] = cpu.R[in.B] / cpu.R[in.C]
		case MOD:
			if cpu.R[in.C] == 0 {
				return used, v.fault("division by zero")
			}
			cpu.R[in.A] = cpu.R[in.B] % cpu.R[in.C]
		case AND:
			cpu.R[in.A] = cpu.R[in.B] & cpu.R[in.C]
		case OR:
			cpu.R[in.A] = cpu.R[in.B] | cpu.R[in.C]
		case XOR:
			cpu.R[in.A] = cpu.R[in.B] ^ cpu.R[in.C]
		case SHL:
			cpu.R[in.A] = cpu.R[in.B] << (uint32(cpu.R[in.C]) & 31)
		case SHR:
			cpu.R[in.A] = int32(uint32(cpu.R[in.B]) >> (uint32(cpu.R[in.C]) & 31))
		case ADDI:
			cpu.R[in.A] = cpu.R[in.B] + in.Imm
		case CMP:
			v.setFlags(int64(cpu.R[in.A]) - int64(cpu.R[in.B]))
		case CMPI:
			v.setFlags(int64(cpu.R[in.A]) - int64(in.Imm))
		case JMP:
			next = uint32(in.Imm)
		case JEQ:
			if cpu.Flags&flagZ != 0 {
				next = uint32(in.Imm)
			}
		case JNE:
			if cpu.Flags&flagZ == 0 {
				next = uint32(in.Imm)
			}
		case JLT:
			if cpu.Flags&flagN != 0 {
				next = uint32(in.Imm)
			}
		case JLE:
			if cpu.Flags&(flagN|flagZ) != 0 {
				next = uint32(in.Imm)
			}
		case JGT:
			if cpu.Flags&(flagN|flagZ) == 0 {
				next = uint32(in.Imm)
			}
		case JGE:
			if cpu.Flags&flagN == 0 {
				next = uint32(in.Imm)
			}
		case CALL:
			if err := v.push(int32(next)); err != nil {
				return used, v.fault("call: %v", err)
			}
			next = uint32(in.Imm)
		case RET:
			x, err := v.pop()
			if err != nil {
				return used, v.fault("ret: %v", err)
			}
			next = uint32(x)
		case PUSH:
			if err := v.push(cpu.R[in.A]); err != nil {
				return used, v.fault("push: %v", err)
			}
		case POP:
			x, err := v.pop()
			if err != nil {
				return used, v.fault("pop: %v", err)
			}
			cpu.R[in.A] = x
		case LDW:
			x, err := v.read32(uint32(cpu.R[in.B] + in.Imm))
			if err != nil {
				return used, v.fault("ldw: %v", err)
			}
			cpu.R[in.A] = x
		case STW:
			if err := v.write32(uint32(cpu.R[in.B]+in.Imm), cpu.R[in.A]); err != nil {
				return used, v.fault("stw: %v", err)
			}
		case LDB:
			var b [1]byte
			if err := v.Mem.ReadAt(b[:], int(cpu.R[in.B]+in.Imm)); err != nil {
				return used, v.fault("ldb: %v", err)
			}
			cpu.R[in.A] = int32(b[0])
		case STB:
			b := [1]byte{byte(cpu.R[in.A])}
			if err := v.Mem.WriteAt(b[:], int(cpu.R[in.B]+in.Imm)); err != nil {
				return used, v.fault("stb: %v", err)
			}
		case SYS:
			st, err := v.syscall(sys, in.Imm, &next)
			if err != nil {
				return used, v.fault("sys %d: %v", in.Imm, err)
			}
			if st != Running {
				if st == Blocked {
					// Retry the SYS on the next Step; do not
					// advance PC and do not count the retry
					// attempt as progress.
					cpu.Steps--
					return used - 1, Blocked
				}
				cpu.PC = next
				return used, st
			}
		default:
			return used, v.fault("illegal opcode %v", in.Op)
		}
		cpu.PC = next
	}
	return used, Running
}

// syscall dispatches a SYS trap. It returns Running to continue, or a
// terminal/pausing status.
func (v *VM) syscall(sys Syscalls, num int32, next *uint32) (Status, error) {
	cpu := &v.CPU
	switch num {
	case SysExit:
		cpu.ExitCode = cpu.R[0]
		return Halted, nil
	case SysYield:
		return Yielded, nil
	case SysGetPID:
		c, l := sys.PID()
		cpu.R[0], cpu.R[1] = int32(c), int32(l)
	case SysSend, SysSend2:
		data, err := v.bytesArg(cpu.R[1], cpu.R[2])
		if err != nil {
			return Running, err
		}
		carries := []uint16{uint16(cpu.R[3])}
		if num == SysSend2 {
			carries = append(carries, uint16(cpu.R[5]))
		}
		if err := sys.Send(uint16(cpu.R[0]), data, carries...); err != nil {
			cpu.R[0] = -1
		} else {
			cpu.R[0] = 0
		}
	case SysRecv:
		if cpu.R[2] < 0 {
			return Running, fmt.Errorf("negative receive capacity")
		}
		data, carried, sender, ok := sys.Recv(int(cpu.R[2]))
		if !ok {
			return Blocked, nil
		}
		if len(data) > 0 {
			if err := v.Mem.WriteAt(data, int(uint32(cpu.R[1]))); err != nil {
				return Running, err
			}
		}
		cpu.R[0] = int32(len(data))
		cpu.R[3] = int32(carried)
		cpu.R[4] = int32(sender)
	case SysMkLink:
		id, err := sys.CreateLink(uint16(cpu.R[1]), uint32(cpu.R[2]), uint32(cpu.R[3]))
		if err != nil {
			cpu.R[0] = -1
		} else {
			cpu.R[0] = int32(id)
		}
	case SysRmLink:
		if err := sys.DestroyLink(uint16(cpu.R[0])); err != nil {
			cpu.R[0] = -1
		} else {
			cpu.R[0] = 0
		}
	case SysPrint:
		data, err := v.bytesArg(cpu.R[1], cpu.R[2])
		if err != nil {
			return Running, err
		}
		sys.Print(data)
	case SysTime:
		cpu.R[0] = int32(uint32(sys.Now()))
	case SysMigrate:
		if err := sys.MigrateSelf(uint16(cpu.R[0])); err != nil {
			cpu.R[0] = -1
		} else {
			cpu.R[0] = 0
		}
	case SysRand:
		cpu.R[0] = int32(sys.Rand())
	default:
		return Running, fmt.Errorf("unknown syscall")
	}
	return Running, nil
}

func (v *VM) bytesArg(addrReg, lenReg int32) ([]byte, error) {
	if lenReg < 0 {
		return nil, fmt.Errorf("negative length")
	}
	b := make([]byte, lenReg)
	if err := v.Mem.ReadAt(b, int(uint32(addrReg))); err != nil {
		return nil, err
	}
	return b, nil
}
