package proctest

import (
	"bytes"
	"reflect"
	"testing"

	"demosmp/internal/proc"
)

// CheckStateCodec holds the Snapshot/Restore of one body type to the
// properties of proc's state format. Every state is snapshotted once, then
// again in the reverse order, and
//
//   - the two snapshots are equal, whatever was encoded in between;
//   - Restore of the snapshot into a new body gives what ref leaves in one
//     (ref copies src into dst through a reference codec), and a snapshot
//     of the restored body is the same bytes;
//   - every truncation of the snapshot fails and leaves the body as it
//     was, and the whole snapshot restores right after.
//
// states should include the zero state. newBody makes an empty body of the
// type, as the kernel's registry does on a migration's destination.
func CheckStateCodec(t *testing.T, newBody func() proc.Body, ref func(dst, src proc.Body) error, states ...proc.Body) {
	t.Helper()
	snaps := make([][]byte, len(states))
	for i, x := range states {
		snap, err := x.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot of %+v: %v", x, err)
		}
		snaps[i] = snap
	}
	for i := len(states) - 1; i >= 0; i-- {
		x, snap := states[i], snaps[i]
		if again, err := x.Snapshot(); err != nil || !bytes.Equal(again, snap) {
			t.Fatalf("Snapshot of %+v again: %x, %v; first %x", x, again, err, snap)
		}
		want := newBody()
		if err := ref(want, x); err != nil {
			t.Fatalf("reference copy of %+v: %v", x, err)
		}
		y := newBody()
		if err := y.Restore(snap); err != nil || !reflect.DeepEqual(y, want) {
			t.Fatalf("Restore of %+v gave %+v, %v; the reference gives %+v", x, y, err, want)
		}
		if again, err := y.Snapshot(); err != nil || !bytes.Equal(again, snap) {
			t.Fatalf("Snapshot of the restored %+v: %x, %v; want %x", y, again, err, snap)
		}
		for cut := 0; cut < len(snap); cut++ {
			y := newBody()
			if err := y.Restore(snap[:cut]); err == nil || !reflect.DeepEqual(y, newBody()) {
				t.Fatalf("Restore of %+v cut to %d of %d bytes: %+v, %v; want an error and the body untouched",
					x, cut, len(snap), y, err)
			}
			if err := y.Restore(snap); err != nil || !reflect.DeepEqual(y, want) {
				t.Fatalf("Restore of %+v after a bad blob: %+v, %v", x, y, err)
			}
		}
	}
}
