package dvm

import (
	"fmt"

	"demosmp/internal/memory"
)

// Program is an assembled DVM program: code, initialized data, and a stack
// reservation. Together with a CPU snapshot it is everything a process
// needs to run — and everything migration must move.
type Program struct {
	Code      []Instr
	Data      []byte
	StackSize int
	Entry     uint32 // byte address of the first instruction
	Labels    map[string]uint32
}

// CodeBytes returns the encoded size of the code segment.
func (p *Program) CodeBytes() int { return len(p.Code) * InstrSize }

// ImageSize returns the total memory image size: code + data + stack,
// rounded up to a page.
func (p *Program) ImageSize() int {
	n := p.CodeBytes() + len(p.Data) + p.StackSize
	if rem := n % memory.PageSize; rem != 0 {
		n += memory.PageSize - rem
	}
	return n
}

// DataBase returns the byte address where the data segment starts.
func (p *Program) DataBase() uint32 { return uint32(p.CodeBytes()) }

// BuildImage lays the program out in a fresh memory image:
// [code | data | ... | stack], stack at the top growing down.
func (p *Program) BuildImage(store *memory.Store) (*memory.Image, error) {
	img := memory.NewImage(p.ImageSize(), store)
	buf := make([]byte, p.CodeBytes())
	for i, in := range p.Code {
		in.Encode(buf[i*InstrSize:])
	}
	if err := img.WriteAt(buf, 0); err != nil {
		return nil, fmt.Errorf("dvm: laying out code: %w", err)
	}
	if len(p.Data) > 0 {
		if err := img.WriteAt(p.Data, int(p.DataBase())); err != nil {
			return nil, fmt.Errorf("dvm: laying out data: %w", err)
		}
	}
	return img, nil
}
