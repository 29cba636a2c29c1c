package core

import (
	"testing"

	"demosmp/internal/addr"
)

// TestKernelTableIsDense: the cluster's kernel table is a slice indexed by
// machine id. Kernel(m) is machine m's kernel for 1 <= m <= Machines() and
// nil outside that range (machine 0 is reserved), as the map it replaced
// answered; kernels() walks the machines in id order, on any shard count.
func TestKernelTableIsDense(t *testing.T) {
	for _, shards := range []int{1, 3} {
		const machines = 7
		c, err := New(Options{Machines: machines, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Machines(); got != machines {
			t.Fatalf("%d shards: Machines() = %d, want %d", shards, got, machines)
		}
		for _, m := range []int{-1, 0, machines + 1, 1 << 16} {
			if k := c.Kernel(m); k != nil {
				t.Errorf("%d shards: Kernel(%d) = machine %v, want nil", shards, m, k.Machine())
			}
		}
		ks := c.kernels()
		if len(ks) != machines {
			t.Fatalf("%d shards: kernels() has %d kernels, want %d", shards, len(ks), machines)
		}
		for i, k := range ks {
			m := i + 1
			if k == nil || k.Machine() != addr.MachineID(m) {
				t.Fatalf("%d shards: kernels()[%d] is %v, want machine %d", shards, i, k, m)
			}
			if c.Kernel(m) != k {
				t.Errorf("%d shards: Kernel(%d) is not kernels()[%d]", shards, m, i)
			}
		}
	}
}
