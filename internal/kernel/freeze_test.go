package kernel

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/workload"
)

// These tests pin the one codec (freeze/thaw in migrate.go). They are
// in-package because the serialized form of a process is deliberately not
// part of the public API: the outside world sees it only as move-data
// streams and checkpoint bytes.

// regions is an owned copy of a frozen process, with the swappable region
// concatenated the way it crosses the wire and sits in a checkpoint.
type regions struct{ resident, swappable, program []byte }

func freezeCopy(t *testing.T, k *Kernel, p *Process) regions {
	t.Helper()
	var f frozen
	if err := k.freeze(&f, p); err != nil {
		t.Fatal(err)
	}
	swappable := append(bytes.Clone(f.swap), f.ctl...)
	return regions{bytes.Clone(f.resident), swappable, bytes.Clone(f.program)}
}

func (r regions) diff(t *testing.T, what string, o regions) {
	t.Helper()
	if !bytes.Equal(r.resident, o.resident) {
		t.Errorf("%s: resident records differ:\n %x\n %x", what, r.resident, o.resident)
	}
	if !bytes.Equal(r.swappable, o.swappable) {
		t.Errorf("%s: swappable regions differ (%d vs %d bytes)", what, len(r.swappable), len(o.swappable))
	}
	if !bytes.Equal(r.program, o.program) {
		t.Errorf("%s: program images differ (%d vs %d bytes)", what, len(r.program), len(o.program))
	}
}

// TestFreezeThawRoundTrip is the codec's property: thawing a frozen process
// into an empty record on another kernel, at a later time, and freezing it
// again yields the same three regions byte for byte — §3.1 step 1's "No
// change is made to the recorded state of the process".
func TestFreezeThawRoundTrip(t *testing.T) {
	peer := link.Link{Addr: addr.At(addr.ProcessID{Creator: 2, Local: 9}, 2)}
	cases := []struct {
		name  string
		state ProcState // state the process must be frozen in (0: any)
		spawn func(k *Kernel) addr.ProcessID
	}{
		{"vm", 0, func(k *Kernel) addr.ProcessID {
			pid, err := k.Spawn(SpawnSpec{Program: workload.CPUBound(100000), Links: []link.Link{peer}})
			if err != nil {
				t.Fatal(err)
			}
			return pid
		}},
		{"native-with-image", StateWaiting, func(k *Kernel) addr.ProcessID {
			pid, err := k.Spawn(SpawnSpec{Body: &poolDrainBody{}, ImageSize: 3000,
				Links: []link.Link{peer, peer}, Privileged: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				k.GiveMessage(pid, peer.Addr, []byte("state"))
			}
			return pid
		}},
		{"suspended", StateSuspended, func(k *Kernel) addr.ProcessID {
			pid, err := k.Spawn(SpawnSpec{Program: workload.CPUBound(100000)})
			if err != nil {
				t.Fatal(err)
			}
			k.GiveControl(pid, msg.OpSuspend, nil)
			return pid
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, ks := poolTestCluster(t, 2)
			e.RunFor(700) // so the record's creation time is not zero
			pid := tc.spawn(ks[0])
			e.RunFor(5000)
			p := ks[0].lookup(pid)
			if p == nil {
				t.Fatal("process gone before the freeze")
			}
			if tc.state != 0 && p.state != tc.state {
				t.Fatalf("state %v, want %v", p.state, tc.state)
			}
			want := freezeCopy(t, ks[0], p)

			e.RunFor(900) // thaw later than the freeze, as a migration does
			q := ks[1].getProcRec()
			q.id = pid
			if err := ks[1].thaw(q, want.resident, want.swappable, want.program); err != nil {
				t.Fatal(err)
			}
			want.diff(t, "freeze(thaw(freeze(p)))", freezeCopy(t, ks[1], q))
		})
	}
}

// TestCheckpointIsMigrationPayload pins §1's "a checkpoint is a migration
// payload": the three sections of a checkpoint are the regions a migration
// of the same process at the same instant streams, and reviving the one and
// migrating the other produce the same process. The handoff case holds the
// process in m1's stable storage before it moves, so m2 writes its own
// checkpoint at step 8 from the regions that arrived: those sections are
// what m2 would stream now, and reviving them on m3 gives the same process.
func TestCheckpointIsMigrationPayload(t *testing.T) {
	for _, name := range []string{"checkpoint", "handoff"} {
		handoff := name == "handoff"
		t.Run(name, func(t *testing.T) {
			e, ks := poolTestCluster(t, 3)
			peer := link.Link{Addr: addr.At(addr.ProcessID{Creator: 3, Local: 4}, 3)}
			pid, err := ks[0].Spawn(SpawnSpec{Body: &poolDrainBody{}, ImageSize: 2000, Links: []link.Link{peer}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				ks[0].GiveMessage(pid, peer.Addr, []byte("state"))
			}
			e.Run() // the process is now waiting: nothing changes it until it moves

			streamed := freezeCopy(t, ks[0], ks[0].lookup(pid))
			ckpt, err := ks[0].Checkpoint(pid)
			if err != nil {
				t.Fatal(err)
			}
			streamed.diff(t, "checkpoint sections vs migration regions", checkpointSections(t, ckpt))
			if handoff {
				if err := ks[0].SaveCheckpoint(pid); err != nil {
					t.Fatal(err)
				}
			}

			ks[0].RequestMigrationOf(addr.At(pid, 1), 2)
			e.Run()
			if handoff {
				if _, ok := ks[0].coldView().stable[pid]; ok {
					t.Error("m1 kept its checkpoint after the process left")
				}
				if ckpt = ks[1].coldView().stable[pid]; ckpt == nil {
					t.Fatal("m2 wrote no checkpoint at step 8")
				}
				freezeCopy(t, ks[1], ks[1].lookup(pid)).diff(t, "handoff sections vs m2's regions", checkpointSections(t, ckpt))
			}
			if _, err := ks[2].Revive(ckpt); err != nil {
				t.Fatal(err)
			}
			migrated, ok1 := ks[1].Process(pid)
			revived, ok2 := ks[2].Process(pid)
			if !ok1 || !ok2 || migrated != revived {
				t.Fatalf("migrated copy %+v (%v), revived copy %+v (%v)", migrated, ok1, revived, ok2)
			}
			var links [2][]link.Link
			for i, k := range ks[1:] {
				k.VisitLinks(pid, func(id link.ID, l link.Link) { links[i] = append(links[i], l) })
			}
			if len(links[0]) != 1 || !reflect.DeepEqual(links[0], links[1]) {
				t.Errorf("link tables differ: migrated %v, revived %v", links[0], links[1])
			}
			var snaps [2][]byte
			for i, k := range ks[1:] {
				body, _ := k.BodyOf(pid)
				if snaps[i], err = body.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(snaps[0], snaps[1]) {
				t.Errorf("body snapshots differ: migrated %x, revived %x", snaps[0], snaps[1])
			}
		})
	}
}

// checkpointSections splits a checkpoint's three sections out of its header.
func checkpointSections(t *testing.T, ckpt []byte) regions {
	t.Helper()
	b := ckpt[4+addr.PIDWireSize+1:]
	section := func() []byte {
		n := binary.LittleEndian.Uint32(b)
		sec := b[4 : 4+n]
		b = b[4+n:]
		return sec
	}
	stored := regions{section(), section(), section()}
	if len(b) != 0 {
		t.Fatalf("%d trailing checkpoint bytes", len(b))
	}
	return stored
}

// TestSnapshotIsAFunctionOfState: freezing one process twice, with nothing
// run in between, gives the same four regions byte for byte, so a hash of
// freeze's bytes is a hash of the process's state. The body is a Recorder
// holding eight entries: a map, which a serializer that walks it in Go's
// iteration order writes differently from one freeze to the next.
func TestSnapshotIsAFunctionOfState(t *testing.T) {
	e, ks := poolTestCluster(t, 1)
	r := &workload.Recorder{Seen: map[uint32]uint32{}, Junk: 1}
	for i := uint32(0); i < 8; i++ {
		r.Seen[i*7919] = i + 1
	}
	peer := link.Link{Addr: addr.At(addr.ProcessID{Creator: 2, Local: 9}, 2)}
	pid, err := ks[0].Spawn(SpawnSpec{Body: r, ImageSize: 1000, Links: []link.Link{peer}})
	if err != nil {
		t.Fatal(err)
	}
	e.RunFor(1000)
	p := ks[0].lookup(pid)
	var a, b frozen
	if err := ks[0].freeze(&a, p); err != nil {
		t.Fatal(err)
	}
	if err := ks[0].freeze(&b, p); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		x, y []byte
	}{{"resident", a.resident, b.resident}, {"swap", a.swap, b.swap}, {"ctl", a.ctl, b.ctl}, {"program", a.program, b.program}} {
		if !bytes.Equal(c.x, c.y) {
			t.Errorf("%s differs between two freezes:\n %x\n %x", c.name, c.x, c.y)
		}
	}
}
