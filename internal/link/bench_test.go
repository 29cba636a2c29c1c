package link

import (
	"testing"

	"demosmp/internal/addr"
)

// The link update of §5 scans the sender's whole table; these benches show
// the real (wall-clock) cost of that scan and of the snapshot taken for
// every migration's swappable state.

func buildTable(n int) *Table {
	t := NewTable(0)
	for i := 0; i < n; i++ {
		t.Insert(Link{Addr: addr.At(
			addr.ProcessID{Creator: 1, Local: addr.LocalUID(i%50 + 1)},
			addr.MachineID(i%8+1))})
	}
	return t
}

func BenchmarkUpdateAddr(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(sizeName(n), func(b *testing.B) {
			t := buildTable(n)
			target := addr.ProcessID{Creator: 1, Local: 7}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.UpdateAddr(target, addr.MachineID(i%8+1))
			}
		})
	}
}

func BenchmarkTableSnapshot(b *testing.B) {
	for _, n := range []int{16, 256} {
		b.Run(sizeName(n), func(b *testing.B) {
			t := buildTable(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = t.AppendSnapshot(nil)
			}
		})
	}
}

func BenchmarkSnapshotRestore(b *testing.B) {
	t := buildTable(64)
	snap := t.AppendSnapshot(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RestoreTableInto(&Table{}, snap); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(n int) string {
	if n < 100 {
		return "links=16"
	}
	return "links=256"
}
