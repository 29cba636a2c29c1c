package core_test

import (
	"runtime"
	"testing"

	"demosmp/internal/core"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// BenchmarkOpenLoopPeakLiveHeap finds where an open-loop run's live heap
// peaks. The scene is the end-to-end benchmark's open-loop shape: one shard,
// the default trace ring, Poisson arrivals 120 µs apart per machine with a
// tenth of them long jobs, and 8 sparse Sink/Chatter pairs, sliced like the
// benchmark into 1/1000ths of a horizon of 4·PerMachine·MeanGap and drained
// at the same step. After every slice it collects garbage and reads the
// live heap, and it reports
//
//   - peak-live-B: the largest live heap after a slice's collection;
//   - peak-slice: the slice it follows (0-based);
//   - live-procs: the processes alive then (Σ Spawned − Exited − Crashes);
//   - max-live-procs and max-live-slice: the high water of live processes
//     and its slice;
//   - end-live-B and end-procs: the live heap and the processes alive after
//     the last slice.
//
// 1000m is the benchmark's openloop-1000 at seed 1 (about 10 s an op on two
// cores, most of it the collections); 64m, the same shape on 64 machines,
// is a one-second smoke of the same probe. The heap the benchmark
// reports (heap_peak_bytes, HeapSys at the end) follows the high water of
// live processes, since the Go heap returns little of what it once held;
// this probe says how large that high water is and where in the run it
// falls. Nothing here is timed: ns/op is the collections' cost.
//
// 1000m-paced runs the same scene with no collection of its own, so the
// collector paces itself as in the benchmark, and reads the heap after
// every slice. heap_peak_bytes is not the live high water: it is the heap
// the ramp's last collection leaves plus what is allocated after it, up to
// the next collection's goal, which a ramp that then shrinks may never
// reach. The forced collections above cannot show that. It reports
//
//   - sys-B: HeapSys after the last slice, the benchmark's heap_peak_bytes;
//   - max-inuse-B: the largest HeapInuse after a slice;
//   - gcs: the collections during the run;
//   - last-gc-slice: the slice in which the run's last collection fell;
//   - sys-before-B: HeapSys before the scene is built.
//
// HeapSys is a high water of the whole process, so run it alone by name
// (-bench 'OpenLoopPeakLiveHeap/1000m-paced' -benchtime 1x): after another
// sub-benchmark, sys-before-B shows what it left.
func BenchmarkOpenLoopPeakLiveHeap(b *testing.B) {
	const gap = 120
	run := func(b *testing.B, machines, per int) {
		var ms runtime.MemStats
		for i := 0; i < b.N; i++ {
			c, _ := openLoopScene(b, core.Options{Machines: machines, Seed: 1, Shards: 1},
				workload.OpenLoop{Seed: 1, MeanGap: gap, PerMachine: per, LongFraction: 0.1}, 8)
			live := func() (n uint64) {
				for m := 1; m <= machines; m++ {
					s := c.Kernel(m).Stats()
					n += s.Spawned - s.Exited - s.Crashes
				}
				return n
			}
			const slices = 1000
			step := sim.Time(4*per*gap) / slices
			var peak, peakSlice, peakProcs, maxProcs, maxSlice, n uint64
			for s := uint64(0); s < slices || busy(c); s++ {
				c.RunFor(step)
				runtime.GC()
				runtime.ReadMemStats(&ms)
				n = live()
				if ms.HeapAlloc > peak {
					peak, peakSlice, peakProcs = ms.HeapAlloc, s, n
				}
				if n > maxProcs {
					maxProcs, maxSlice = n, s
				}
			}
			b.ReportMetric(float64(peak), "peak-live-B")
			b.ReportMetric(float64(peakSlice), "peak-slice")
			b.ReportMetric(float64(peakProcs), "live-procs")
			b.ReportMetric(float64(maxProcs), "max-live-procs")
			b.ReportMetric(float64(maxSlice), "max-live-slice")
			b.ReportMetric(float64(ms.HeapAlloc), "end-live-B")
			b.ReportMetric(float64(n), "end-procs")
		}
	}
	paced := func(b *testing.B, machines, per int) {
		var ms runtime.MemStats
		for i := 0; i < b.N; i++ {
			runtime.ReadMemStats(&ms)
			sysBefore := ms.HeapSys
			c, _ := openLoopScene(b, core.Options{Machines: machines, Seed: 1, Shards: 1},
				workload.OpenLoop{Seed: 1, MeanGap: gap, PerMachine: per, LongFraction: 0.1}, 8)
			runtime.ReadMemStats(&ms)
			gc0 := ms.NumGC
			const slices = 1000
			step := sim.Time(4*per*gap) / slices
			var maxInuse, lastGCSlice uint64
			gcs := gc0
			for s := uint64(0); s < slices || busy(c); s++ {
				c.RunFor(step)
				runtime.ReadMemStats(&ms)
				maxInuse = max(maxInuse, ms.HeapInuse)
				if ms.NumGC != gcs {
					gcs, lastGCSlice = ms.NumGC, s
				}
			}
			b.ReportMetric(float64(ms.HeapSys), "sys-B")
			b.ReportMetric(float64(maxInuse), "max-inuse-B")
			b.ReportMetric(float64(gcs-gc0), "gcs")
			b.ReportMetric(float64(lastGCSlice), "last-gc-slice")
			b.ReportMetric(float64(sysBefore), "sys-before-B")
		}
	}
	b.Run("1000m", func(b *testing.B) { run(b, 1000, 100) })
	b.Run("64m", func(b *testing.B) { run(b, 64, 100) })
	b.Run("1000m-paced", func(b *testing.B) { paced(b, 1000, 100) })
}

// busy reports whether c still has work a plain Run would do: a strong
// event on some shard's engine or a frame in a canonical pending heap.
func busy(c *core.Cluster) bool {
	for s := 0; s < c.Shards(); s++ {
		if c.EngineOfShard(s).StrongPending() > 0 {
			return true
		}
	}
	return c.PendingFrames() > 0
}
