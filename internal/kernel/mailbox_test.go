package kernel

import (
	"testing"

	"demosmp/internal/msg"
	"demosmp/internal/netw"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// TestMailboxFIFO drives one mailbox through pushes and pops that cross the
// inline head and the ring in every order: messages come out in the order
// they went in, at(i) reads the i-th without removing it, Len counts the
// head and the ring, the ring's high-water mark follows the deepest the
// queue has been, and a pop on an empty queue returns nil and leaves it
// empty. The ring is made at the second push and kept when the queue
// drains.
func TestMailboxFIFO(t *testing.T) {
	var q mailbox
	if q.Len() != 0 || q.pop() != nil || q.Len() != 0 {
		t.Fatalf("empty mailbox: Len %d, pop not nil, or pop changed it", q.Len())
	}
	msgs := make([]msg.Message, 16)
	in, out, peak := 0, 0, 0
	check := func(step string) {
		t.Helper()
		if q.Len() != in-out {
			t.Fatalf("%s: Len = %d, want %d", step, q.Len(), in-out)
		}
		for i := 0; i < in-out; i++ {
			if q.at(i) != &msgs[out+i] {
				t.Fatalf("%s: at(%d) is message %p, want message %d", step, i, q.at(i), out+i)
			}
		}
	}
	// Pushes, then pops, per round; the depth after each round is 1, 2, 0, 1,
	// 4, 0, 0, 3, 0, and it peaks at 6 inside the eighth.
	for _, op := range []struct{ push, pop int }{
		{1, 0}, {1, 0}, {0, 2}, {3, 2}, {4, 1}, {0, 4}, {1, 1}, {6, 3}, {0, 3},
	} {
		for range op.push {
			q.push(&msgs[in])
			in++
			peak = max(peak, in-out)
			if peak > 1 && int(q.more.hw) != peak {
				t.Fatalf("after a push to depth %d: high water %d, want %d", in-out, q.more.hw, peak)
			}
			check("push")
		}
		for range op.pop {
			if m := q.pop(); m != &msgs[out] {
				t.Fatalf("pop = %p, want message %d (%p)", m, out, &msgs[out])
			}
			out++
			check("pop")
		}
	}
	if in != len(msgs) || q.Len() != 0 {
		t.Fatalf("pushed %d of %d, %d left", in, len(msgs), q.Len())
	}
	if q.head != nil || q.more == nil || q.more.Len() != 0 || q.more.hw != 6 {
		t.Fatalf("drained mailbox = %+v, want no head and an empty ring kept, high water 6", q)
	}
	if q.pop() != nil || q.Len() != 0 {
		t.Fatal("pop on a drained mailbox returned a message")
	}
}

// TestTimerOnlyQueueAllocatesNoRing: a job whose queue only ever holds its
// fired timer keeps it in the inline head. The timers fire 10 µs apart,
// far faster than the one CPU serves the jobs, so most wait fired on their
// queues at once; no record, live or recycled, grows a ring.
func TestTimerOnlyQueueAllocatesNoRing(t *testing.T) {
	const n = 200
	const service = sim.Time(1_000_000)
	eng := sim.NewEngine(1)
	k := New(1, eng, netw.New(eng, netw.Config{}), Config{})
	bodies := make([]workload.Job, n)
	for i := range bodies {
		// Job i arms at 150·i µs and fires at 1 s + 10·i µs.
		bodies[i].Service = service - sim.Time(140*i)
		if _, err := k.Spawn(SpawnSpec{Body: &bodies[i]}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(service + 10*n + LocalLatency)
	queued := 0
	k.eachProc(func(p *Process) {
		if p.queue.Len() > 0 {
			queued++
		}
		if p.queue.more != nil {
			t.Errorf("%v holds %d messages and grew a ring", p.id, p.queue.Len())
		}
	})
	if queued < n*9/10 {
		t.Fatalf("%d of %d jobs wait fired on their queues, want at least %d", queued, n, n*9/10)
	}
	eng.Run()
	if got := k.Stats().Exited; got != n {
		t.Fatalf("%d of %d jobs exited", got, n)
	}
	for _, p := range k.parkedRecs() {
		if p.queue.more != nil {
			t.Fatalf("a recycled record kept a ring its job never needed")
		}
	}
}
