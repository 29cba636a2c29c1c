//go:build !race

package kernel

import (
	"math/rand"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/workload"
)

// TestUIDTableMatchesReference drives machine 1 through random spawns,
// exits with random codes and migrations away to machine 2, past the UID
// counter's wrap, and holds the paged table to a reference map: allocUID
// issues the UID the reference expects (skipping 0, live UIDs and UIDs a
// forwarding address holds), and lookup, Exit and eachProc agree with the
// reference for every UID, checked after every operation for the UID it
// touched and in full every 8 192 spawns and at the end. (About 70 000
// spawns: under the race detector it takes half a minute and checks
// nothing a single-threaded table could race on, hence the build tag.)
func TestUIDTableMatchesReference(t *testing.T) {
	eng, k1, _ := twoCounterKernels()
	rng := rand.New(rand.NewSource(52))
	type ref struct {
		live   bool
		away   bool // migrated to m2: a forwarding address holds the UID
		exited bool
		code   int32
	}
	refs := make([]ref, 1<<16)
	var live []addr.LocalUID
	next := addr.LocalUID(1)
	pidOf := func(uid addr.LocalUID) addr.ProcessID { return addr.ProcessID{Creator: 1, Local: uid} }
	checkUID := func(uid addr.LocalUID) {
		r := refs[uid]
		p := k1.lookup(pidOf(uid))
		if (p != nil) != r.live || (p != nil && p.id != pidOf(uid)) {
			t.Fatalf("UID %d: lookup = %v, reference %+v", uid, p, r)
		}
		e, ok := k1.Exit(pidOf(uid))
		if ok != r.exited || (ok && e.Code != r.code) {
			t.Fatalf("UID %d: Exit = %+v, %v; reference %+v", uid, e, ok, r)
		}
	}
	checkAll := func() {
		t.Helper()
		checkSlotPages(t, k1)
		for uid := addr.LocalUID(1); uid != 0; uid++ {
			checkUID(uid)
		}
		n := 0
		k1.eachProc(func(p *Process) {
			n++
			if !refs[p.id.Local].live {
				t.Fatalf("eachProc visits %v, which the reference holds dead", p.id)
			}
		})
		if n != len(live) {
			t.Fatalf("eachProc visits %d processes, the reference holds %d live", n, len(live))
		}
	}
	spawns, wrapped := 0, false
	var bodies []workload.Counter
	for !wrapped || next < 3*slotPage {
		if len(live) < 48 || rng.Intn(2) == 0 {
			want := next
			for want == 0 || refs[want].live || refs[want].away {
				want++
			}
			if len(bodies) == 0 {
				bodies = make([]workload.Counter, 1024)
			}
			pid, err := k1.Spawn(SpawnSpec{Body: &bodies[0]})
			bodies = bodies[1:]
			if err != nil {
				t.Fatal(err)
			}
			if pid.Local != want {
				t.Fatalf("spawn %d was issued UID %d, the reference expects %d", spawns, pid.Local, want)
			}
			if want < next {
				wrapped = true
			}
			next = want + 1
			refs[want] = ref{live: true}
			live = append(live, want)
			checkUID(want)
			if spawns++; spawns%8192 == 0 {
				checkAll()
			}
			continue
		}
		i := rng.Intn(len(live))
		uid := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		if rng.Intn(40) == 0 {
			k1.RequestMigrationOf(addr.At(pidOf(uid), 1), 2)
			eng.Run()
			if _, ok := k1.fwdOf(pidOf(uid)); !ok {
				t.Fatalf("UID %d migrated and left no forwarding address", uid)
			}
			refs[uid] = ref{away: true}
		} else {
			code := rng.Int31()
			k1.terminate(k1.lookup(pidOf(uid)), code, nil)
			refs[uid] = ref{exited: true, code: code}
		}
		checkUID(uid)
	}
	checkAll()
	if n := k1.localSlots(); n != 1<<16 {
		t.Fatalf("after the wrap the table holds %d slots, want %d", n, 1<<16)
	}
}
