package kernel

import (
	"reflect"
	"testing"
	"unsafe"

	"demosmp/internal/addr"
	"demosmp/internal/link"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
)

// slotProbeBody records, for every Recv, the pointer it returned and a copy
// of the delivery it pointed at when it was returned.
type slotProbeBody struct {
	ptrs []*proc.Delivery
	seen []proc.Delivery
}

func (b *slotProbeBody) Kind() string { return "slot-probe" }

func (b *slotProbeBody) Step(ctx proc.Context, budget int) (int, proc.Status) {
	for {
		d, ok := ctx.Recv()
		if !ok {
			return 0, proc.Status{State: proc.Blocked}
		}
		b.ptrs = append(b.ptrs, d)
		b.seen = append(b.seen, *d)
	}
}

func (b *slotProbeBody) Snapshot() ([]byte, error) { return nil, nil }
func (b *slotProbeBody) Restore([]byte) error      { return nil }

// TestRecvSlotResetsBetweenDeliveries: Recv hands out one slot, reset field
// by field. Three deliveries in one Step — a move-read completion (Data, OK,
// Xfer set), a message carrying a link (Carried set), a plain message — must
// come back through the same pointer, and nothing one delivery set may leak
// into the next.
func TestRecvSlotResetsBetweenDeliveries(t *testing.T) {
	eng, ks := poolTestCluster(t, 1)
	k := ks[0]
	body := &slotProbeBody{}
	pid, err := k.Spawn(SpawnSpec{Body: body})
	if err != nil {
		t.Fatal(err)
	}
	p := k.lookup(pid)
	to := addr.At(pid, k.machine)

	done := k.getMsg()
	done.Kind, done.Op, done.To = msg.KindControl, msg.OpMoveReadDone, to
	done.Body = append(msg.XferStatus{Xfer: 7, OK: true}.Encode(), "data"...)
	carrier := k.getMsg()
	carrier.To = to
	carrier.Body = append(carrier.Body[:0], "carrier"...)
	carrier.Links = append(carrier.Links, link.Link{Addr: to})
	plain := k.getMsg()
	plain.To = to
	plain.Body = append(plain.Body[:0], "plain"...)
	for _, m := range []*msg.Message{done, carrier, plain} {
		k.enqueue(p, m) // queued before the first slice: one Step sees all three
	}
	eng.Run()

	if len(body.seen) != 3 {
		t.Fatalf("body saw %d deliveries, want 3 in one step", len(body.seen))
	}
	if k.stats.Slices != 1 {
		t.Fatalf("%d slices, want the three deliveries in one Step", k.stats.Slices)
	}
	for i, ptr := range body.ptrs {
		if ptr != body.ptrs[0] {
			t.Errorf("Recv %d returned %p, want the one slot %p", i, ptr, body.ptrs[0])
		}
	}
	first, second, third := body.seen[0], body.seen[1], body.seen[2]
	if string(first.Data) != "data" || !first.OK || first.Xfer != 7 {
		t.Fatalf("move-read completion: Data=%q OK=%v Xfer=%d", first.Data, first.OK, first.Xfer)
	}
	if len(second.Carried) != 1 {
		t.Fatalf("carrier: Carried=%v, want one installed link", second.Carried)
	}
	if second.Data != nil || second.OK || second.Xfer != 0 {
		t.Errorf("carrier kept the completion's fields: Data=%q OK=%v Xfer=%d", second.Data, second.OK, second.Xfer)
	}
	if string(third.Body) != "plain" || third.Op != msg.OpNone {
		t.Fatalf("plain: Body=%q Op=%v", third.Body, third.Op)
	}
	if third.Data != nil {
		t.Errorf("plain: Data=%q, want nil", third.Data)
	}
	if third.Carried != nil {
		t.Errorf("plain: Carried=%v, want nil", third.Carried)
	}
	if third.Xfer != 0 {
		t.Errorf("plain: Xfer=%d, want 0", third.Xfer)
	}
	if third.OK {
		t.Error("plain: OK=true, want false")
	}
}

// TestKernelSizeClass: a Kernel is one allocation per simulated machine, and
// Go puts an 8-byte header in front of an object with pointers larger than
// 512 B, so a Kernel of at most 568 B takes the 576-byte size class. It is
// 528 B (40 B to spare) since its free lists of Process and pending records
// each became one pointer to a chain (freelist.go), the load-report state
// one pointer to its own record, and the run queue two pointers to a chain
// through the records (runq.go). 41 bytes more take the 640-byte class and raise
// heap_live_bytes_per_machine by 64 B on every workload. A field that pushes it over fails here first;
// a field or counter a machine that only runs jobs and exchanges user
// messages never touches belongs in the cold record (coldState, cold.go),
// not in the struct.
func TestKernelSizeClass(t *testing.T) {
	const class, header = 576, 8
	if sz := unsafe.Sizeof(Kernel{}); sz+header > class {
		t.Fatalf("unsafe.Sizeof(Kernel{}) = %d, want <= %d (the %d-byte size class less the allocation header)", sz, class-header, class)
	}
}

// TestPoolAndEnvelopeSizeClass: a kernel's msg.Pool is one allocation per
// machine (free list, return pool, counter and the cached timer mark: 48 B)
// and must stay in the 48-byte size class; one class up (64 B) costs
// every machine 16 B, about 1.5 % of openloop-1000's
// heap_live_bytes_per_machine. A msg.Message (an envelope, or a fired
// timer's mark) must stay in the 128-byte class: one class up costs every
// pooled envelope 16 B.
func TestPoolAndEnvelopeSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(msg.Pool{}); sz > 48 {
		t.Errorf("unsafe.Sizeof(msg.Pool{}) = %d, want <= 48 (the 48-byte size class)", sz)
	}
	if sz := unsafe.Sizeof(msg.Message{}); sz > 128 {
		t.Errorf("unsafe.Sizeof(msg.Message{}) = %d, want <= 128 (the 128-byte size class)", sz)
	}
}

// TestColdRecordSizeClass: the cold record is one allocation per machine
// that migrates, forwards or faults, and with the same 8-byte header a
// coldState of at most 632 B takes the 640-byte size class. The forwarder
// table lives there, so one field more costs each such machine 64 B.
func TestColdRecordSizeClass(t *testing.T) {
	const class, header = 640, 8
	if sz := unsafe.Sizeof(coldState{}); sz+header > class {
		t.Fatalf("unsafe.Sizeof(coldState{}) = %d, want <= %d (the %d-byte size class less the allocation header)", sz, class-header, class)
	}
}

// TestRecyclerRecordSizeClasses: the records the kernel recycles on chains
// through themselves (freelist.go) keep their size classes with the chain's
// link. A pending record (one per armed timer, local hop and paced packet)
// is 32 B, the 32-byte class, because its bound closure names the kernel
// (newPending): with a kernel field beside the link it is 40 B, the
// 48-byte class, 16 B more for every armed timer. A migration half is
// 352 B, the 352-byte class, with its link because xfer fills padding in
// requester's word; one byte more takes the 384-byte class, 32 B a half.
func TestRecyclerRecordSizeClasses(t *testing.T) {
	if sz := unsafe.Sizeof(pending{}); sz > 32 {
		t.Errorf("unsafe.Sizeof(pending{}) = %d, want <= 32 (the 32-byte size class)", sz)
	}
	if sz := unsafe.Sizeof(migration{}); sz > 352 {
		t.Errorf("unsafe.Sizeof(migration{}) = %d, want <= 352 (the 352-byte size class)", sz)
	}
}

// TestProcessRecordLayout: a Process is exactly 96 bytes, Go's 96-byte
// size class; every field that holds a pointer ends inside the first
// 64-byte line, so the collector's scan of a record stops there; and so
// does everything a scheduling slice reads with load reports off (state,
// body, queue, and runNext, the run queue's link). Those pointers fill the
// line, so cpuUsed, which the slice writes, must open the second one, at
// byte 64. A field that grows the record into the 112-byte class, or a
// reorder that pushes a slice field or a pointer (links, ext) past the
// first line, fails here.
func TestProcessRecordLayout(t *testing.T) {
	var p Process
	if sz := unsafe.Sizeof(p); sz != 96 {
		t.Fatalf("unsafe.Sizeof(Process{}) = %d, want 96 (Go's 96-byte size class)", sz)
	}
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"state", unsafe.Offsetof(p.state), unsafe.Sizeof(p.state)},
		{"body", unsafe.Offsetof(p.body), unsafe.Sizeof(p.body)},
		{"queue", unsafe.Offsetof(p.queue), unsafe.Sizeof(p.queue)},
		{"runNext", unsafe.Offsetof(p.runNext), unsafe.Sizeof(p.runNext)},
	} {
		if end := f.off + f.size; end > 64 {
			t.Errorf("Process.%s ends at byte %d, want inside the first 64-byte line", f.name, end)
		}
	}
	if off := unsafe.Offsetof(p.cpuUsed); off != 64 {
		t.Errorf("Process.cpuUsed starts at byte %d, want 64 (the first word of the second line)", off)
	}
	rt := reflect.TypeOf(p)
	for i := range rt.NumField() {
		f := rt.Field(i)
		if end := f.Offset + f.Type.Size(); hasPointers(f.Type) && end > 64 {
			t.Errorf("Process.%s holds a pointer and ends at byte %d, want inside the first 64-byte line", f.Name, end)
		}
	}
}

// hasPointers reports whether a value of type t holds a pointer the
// collector scans.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map, reflect.String, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
