package proc

import "demosmp/internal/dvm"

// CPU exposes the register state for tests and tooling.
func (b *VMBody) CPU() *dvm.CPU { return &b.vm.CPU }
