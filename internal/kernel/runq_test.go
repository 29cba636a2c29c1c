package kernel

import (
	"math/rand"
	"slices"
	"testing"

	"demosmp/internal/workload"
)

// TestRunQueueMatchesReferenceFIFO drives the chained run queue and a
// slice FIFO with the same random pushes, pops and out-of-turn removes —
// of the head, the tail, a record in the middle and a record that is not
// queued — and holds the chain to the slice after every operation: the
// same order front to back, the same Len, membership (has) exactly for
// the queued records, a nil runNext on every record off the queue, and a
// tail that ends the chain.
func TestRunQueueMatchesReferenceFIFO(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]*Process, 12)
		for i := range recs {
			recs[i] = &Process{}
		}
		var q runQueue
		var ref []*Process
		check := func(op string) {
			t.Helper()
			var got []*Process
			for c := q.head; c != nil; c = c.runNext {
				if len(got) > len(recs) {
					t.Fatalf("seed %d, %s: the chain loops", seed, op)
				}
				got = append(got, c)
			}
			if !slices.Equal(got, ref) || q.Len() != len(ref) || q.empty() != (len(ref) == 0) {
				t.Fatalf("seed %d, %s: chain %v (Len %d), want %v", seed, op, got, q.Len(), ref)
			}
			if n := len(ref); n > 0 && q.tail != ref[n-1] || n == 0 && q.tail != nil {
				t.Fatalf("seed %d, %s: tail %p, want the last of %v", seed, op, q.tail, ref)
			}
			for _, p := range recs {
				queued := slices.Contains(ref, p)
				if q.has(p) != queued {
					t.Fatalf("seed %d, %s: has(%p) = %v, want %v", seed, op, p, q.has(p), queued)
				}
				if !queued && p.runNext != nil {
					t.Fatalf("seed %d, %s: %p is off the queue with runNext set", seed, op, p)
				}
			}
		}
		for range 400 {
			switch r := rng.Intn(10); {
			case r < 4: // push a record that is not queued
				var free []*Process
				for _, p := range recs {
					if !q.has(p) {
						free = append(free, p)
					}
				}
				if len(free) == 0 {
					continue
				}
				p := free[rng.Intn(len(free))]
				q.push(p)
				ref = append(ref, p)
				check("push")
			case r < 6:
				p := q.pop()
				var want *Process
				if len(ref) > 0 {
					want, ref = ref[0], ref[1:]
				}
				if p != want {
					t.Fatalf("seed %d: pop = %p, want %p", seed, p, want)
				}
				check("pop")
			default: // remove the head, the tail, one in the middle, or one not queued
				var p *Process
				switch {
				case r == 6 && len(ref) > 0:
					p = ref[0]
				case r == 7 && len(ref) > 0:
					p = ref[len(ref)-1]
				case r == 8 && len(ref) > 2:
					p = ref[1+rng.Intn(len(ref)-2)]
				default:
					p = recs[rng.Intn(len(recs))]
				}
				i := slices.Index(ref, p)
				if got := q.remove(p); got != (i >= 0) {
					t.Fatalf("seed %d: remove(%p) = %v, want %v", seed, p, got, i >= 0)
				}
				if i >= 0 {
					ref = slices.Delete(ref, i, i+1)
				}
				check("remove")
			}
		}
	}
}

// TestRestartDropsQueuedJobs crashes a kernel with jobs Ready on its run
// queue and restarts it: the queue is empty, a new job runs to its exit,
// and none of the wiped ones is ever stepped.
func TestRestartDropsQueuedJobs(t *testing.T) {
	e, ks := poolTestCluster(t, 1)
	k := ks[0]
	const queued = 5
	for range queued {
		if _, err := k.Spawn(SpawnSpec{Body: &workload.Job{Service: 10}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := k.runq.Len(); n != queued {
		t.Fatalf("run queue holds %d jobs before the crash, want %d", n, queued)
	}
	k.Crash()
	k.Restart()
	if !k.runq.empty() || k.runq.Len() != 0 || k.runq.tail != nil {
		t.Fatalf("run queue after Restart: head %p, tail %p", k.runq.head, k.runq.tail)
	}
	pid, err := k.Spawn(SpawnSpec{Body: &workload.Job{Service: 10}})
	if err != nil {
		t.Fatal(err)
	}
	e.Run()
	if _, ok := k.Exit(pid); !ok {
		t.Fatal("the job spawned after the restart never exited")
	}
	if st := k.Stats(); st.Slices != 2 || st.Exited != 1 {
		t.Fatalf("after the restart: %d slices, %d exits; want 2 (the new job's) and 1", st.Slices, st.Exited)
	}
}
