package dvm

import (
	"fmt"

	"demosmp/internal/memory"
)

// Label returns the address bound to a label, for tests and tooling.
func (p *Program) Label(name string) (uint32, bool) {
	a, ok := p.Labels[name]
	return a, ok
}

// NewVM builds the image and returns a VM ready to run the program.
func (p *Program) NewVM(store *memory.Store) (*VM, *memory.Image, error) {
	img, err := p.BuildImage(store)
	if err != nil {
		return nil, nil, err
	}
	return New(img, p.Entry), img, nil
}

// Disassemble renders the code segment as text, one instruction per line,
// prefixed with byte addresses.
func (p *Program) Disassemble() string {
	s := ""
	for i, in := range p.Code {
		s += fmt.Sprintf("%6d  %s\n", i*InstrSize, in.String())
	}
	return s
}

// New returns a VM with PC at entry and SP at the top of the image.
func New(mem Mem, entry uint32) *VM {
	return &VM{Mem: mem, CPU: CPU{PC: entry, SP: uint32(mem.Size())}}
}
