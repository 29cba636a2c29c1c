#!/usr/bin/env bash
# Contributor gate: gofmt, vet, lint, build, no encoding/gob outside tests,
# race-test (the schedule explorer's budget 1 included), the tests built only
# without the race detector (heap budgets, experiments goldens, the
# explorer's budget 2), four fuzz smokes (FuzzKernelAdmin, FuzzEngineOrder,
# FuzzPendOrder, FuzzStateCodec), the hot-path allocation guards, a
# one-iteration smoke of the scale, peak-heap, policy and snapshot benchmarks, the msg.Pool,
# mailbox, Kernel.lookup, Histogram.Observe and trace ring inlining guards, the trace-site guards (no Emitf in
# the kernel, no .String() passed to k.trace) and a one-pair smoke of the
# A/B pairs tool. Run from anywhere; exits non-zero on the first failure.
#
#   ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l (any listed file fails; bench/_src included)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "$unformatted"
  exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== demoslint ./... (rules: go run ./cmd/demoslint -rules)"
go run ./cmd/demoslint ./...

echo "== go build ./..."
go build ./...

echo "== no package outside tests depends on encoding/gob (body state is proc.Snapshot's format; gob is only the tests' reference)"
if go list -deps ./... | grep -qx encoding/gob; then
  echo "encoding/gob is a non-test dependency"
  exit 1
fi

echo "== go test -race ./..."
go test -race ./...

echo "== the //go:build !race tests (the race detector's shadow allocations inflate HeapAlloc, and its tenfold slowdown buys the goldens and the explorer nothing): per-machine, per-process (idle jobs, and ~19 000 fired timers queued behind a busy CPU as marks in the queue's inline head, with no envelope or ring each and none held by the pool) and per-forwarder heap budgets, a burst of 20 000 timers fired at one instant that makes no envelope and returns every pending record to its chain, a fired timer's hop in each case that falls back to an envelope (migrated away, held, crashed, exited, a second tag) against the values every-fire-an-envelope gave (a forwarding address is a table entry of at most 40 B), the paged UID table against a reference map past the UID wrap, the trace ring's budget (a full 64k ring in 2 MiB + 64 KiB, its string table bounded by the retained records), experiments goldens, every two-fault schedule of one migration (no leaf flags)"
go test -count=1 -run 'TestPerMachineHeapBudget|TestPerProcessHeapBudget|TestPerForwarderHeapBudget|TestTimerBurstDrawsNoEnvelope|TestTimerHopFallbacks|TestUIDTableMatchesReference|TestRingBudget|TestDefaultOutputGolden|TestTournamentShortGolden|TestSelectExperiments|TestExploreBudget2' \
  ./internal/core ./internal/kernel ./internal/trace ./cmd/experiments ./internal/chaos

echo "== lock-free shard outboxes under the race detector (3 shards, goroutine rounds, lossless + lossy acks, 10 runs)"
go test -race -count=10 -run TestShardOutboxParallel ./internal/core/

echo "== envelopes across shards under the race detector (return pools written inside goroutine rounds, sent home at the barrier; 2 and 4 shards, lossless + lossy, every pool balanced; 5 runs)"
go test -race -count=5 -run 'TestOneWayTrafficKeepsPoolsBounded/parallel' ./internal/core/

echo "== event count across shard counts under the race detector (a pump counts one event per frame it lands; 1/2/4 shards, inline and goroutine rounds, 3 runs)"
go test -race -count=3 -run TestShardFiredInvariance ./internal/core/

echo "== recycled process records and their free chain (a parked record in no table; Restart orphans the chain), split process tables, ProcInfo.Kind read from the body, the forwarder table (the §4 GC, an 8-byte chain, an aborted return that leaves the address in place, and a returning process whose live record wins over its shadowed address), the fork window (a source crash after the transfer leaves one copy), the one restart path (a held kill ends the restarted process at either end; a held request is served after arrival) and the kill-point matrix (a crash at each kill point leaves a checkpointed process one live copy and one checkpoint, on the same machine) under the race detector (3 runs)"
go test -race -count=3 -run 'TestRecycledProcessRecordIsClean|TestFreeChainHoldsOnlyReleasedRecords|TestExitRecordsLocalForeignAndAcrossRestart|TestKillHeldAcrossMigrationEndsTheProcess|TestHeldKillEndsTheRestartedProcess|TestHeldRequestServedAfterArrival|TestProcessesOrderAcrossSplitTables|TestProcInfoKind|TestSourceCrashAfterTransferLeavesOneCopy|TestKillPointMatrix|TestForwarderGC|TestForwardChain|TestAbortedMigrateBackKeepsForwarder|TestReturnMigrationShadowsForwarder' ./internal/kernel/

echo "== chaos soak (short mode, fixed seeds: 4242 / 99 / 7 / 20260808; shard matrix and 1000-machine soak included)"
go test -short -count=1 ./internal/chaos/

echo "== fuzz smoke: arbitrary migration-protocol messages into live kernels mid-migration; exactly one copy unless it is an Abort naming the pid from the source (10 s)"
go test -run='^$' -fuzz=FuzzKernelAdmin -fuzztime=10s ./internal/kernel/

echo "== fuzz smoke: the engine's event queue against a sorted-slice reference, operation by operation (10 s)"
go test -run='^$' -fuzz=FuzzEngineOrder -fuzztime=10s ./internal/sim/

echo "== fuzz smoke: the network's arrival calendar against a slice scanned with pendLess, delivery by delivery, one gate per instant, one counted event per frame and no frame filed for the instant reached (10 s)"
go test -run='^$' -fuzz=FuzzPendOrder -fuzztime=10s ./internal/netw/

echo "== fuzz smoke: the body state codec, arbitrary bytes into Restore (what it accepts snapshots back to the same bytes) and arbitrary states through Snapshot and Restore (Counter, Chatter, Job, Sink, Recorder; 5 s)"
go test -run='^$' -fuzz=FuzzStateCodec -fuzztime=5s ./internal/workload/

echo "== benchmark module: vet + self-test against the surface it compiles against"
(cd bench/_src && go vet ./... && go test ./...)

echo "== hot-path allocation guards (steady state incl. send -> pump at depth 64 and the lossy ARQ round, spawn -> timer -> exit, timer-driven send, timers whose tags alternate so half miss the kernel's one timer mark) + benchmarks (1 iteration smoke; NetwSend matches the Depth1/64/1k rows)"
go test -run 'TestHotPathZeroAlloc|TestSpawnExitSteadyStateAllocs' \
  -bench 'EngineSchedule|EngineDispatchDepth|NetwSend|MsgEncode|Kernel' \
  -benchtime 1x .
echo "== the whole-cluster benchmarks beside their code compile and run (1 iteration smoke: 64-machine open-loop scale points, the 1000-machine point of the controlled pair at 64's live count, the live-heap peak probe on 64 machines, 256-machine policy round, one metrics snapshot of a 1000-machine cluster on 1 and 2 shards)"
go test -run '^$' -bench 'OpenLoopScale/^(64m|1000m-live48k)$|OpenLoopPeakLiveHeap/^64m$|PolicyRound|ObsSnapshot' -benchtime 1x ./internal/core ./internal/policy
echo "== Recv's one Delivery slot resets between deliveries; Kernel stays in its 576-byte size class and its cold record in the 640-byte one, msg.Pool in the 48-byte class and msg.Message in the 128-byte one, the cold record made only at the first migration, forward, restart or console line (never by load reports) and its counters rendered without a Stats copy, the swap store only at the first image; Process is 96 bytes (Go's 96-byte class) with a slice's fields in its first cache line; the cluster's kernel table is dense; a merged snapshot shares nothing with the registry, and the walk over sorted snapshots merges as a name map and a sort do"
go test -count=1 -run 'TestRecvSlotResetsBetweenDeliveries|TestKernelSizeClass|TestPoolAndEnvelopeSizeClass|TestColdRecordSizeClass|TestColdRecordMadeAtFirstUse|TestStatsSplitCoversEveryField|TestAppendMetricsMakesNoStatsCopy|TestProcessRecordLayout' ./internal/kernel/
go test -count=1 -run 'TestKernelTableIsDense' ./internal/core/
go test -count=1 -run 'TestMergeSingleSnapshotFastPath|TestMergeMatchesReference' ./internal/obs/
echo "== shard hot path and cross-shard transport at 0 allocations per frame (the pooled envelope crosses, no clone); at 5% loss, allocations level off (high-water growth, not a leak)"
go test -count=1 -run 'TestShardHotPathZeroAlloc|TestShardOutboxZeroAlloc|TestShardOutboxLossyAllocsLevelOff' ./internal/core/
echo "== msg.Pool.Put and Get stay inlinable (a Put that stops inlining costs pingpong a few per cent)"
inl=$(go build -gcflags=-m ./internal/msg 2>&1)
for fn in Put Get; do
  if ! grep -q "can inline (\*Pool).$fn\b" <<<"$inl"; then
    echo "(*Pool).$fn no longer inlines"
    exit 1
  fi
done
echo "== mailbox.push stays inlinable and inlines at every queue push (enqueue and deliverLocal; a push that became a call cost pingpong-par 2 %)"
inl=$(go build -gcflags=-m ./internal/kernel 2>&1)
if ! grep -q 'can inline (\*mailbox).push$' <<<"$inl"; then
  echo "(*mailbox).push no longer inlines: keep the ring path out of line in pushMore"
  exit 1
fi
sites=$(grep -h --exclude='*_test.go' '\.queue\.push(' internal/kernel/*.go | wc -l)
inlined=$(grep -c 'inlining call to (\*mailbox).push$' <<<"$inl")
if [ "$sites" -ne "$inlined" ]; then
  echo "(*mailbox).push inlines at $inlined of its $sites call sites in internal/kernel"
  exit 1
fi
echo "== the run queue's push and pop inline into pushRun and runSlice (the queue is a chain through the records, runq.go: a call per slice would spend what the chain saves)"
for fn in push pop; do
  if ! grep -q "can inline (\*runQueue).$fn\$" <<<"$inl"; then
    echo "(*runQueue).$fn no longer inlines"
    exit 1
  fi
  lines=$(grep -n "k\.runq\.$fn(" internal/kernel/sched.go | cut -d: -f1)
  if [ "$(wc -w <<<"$lines")" -ne 1 ]; then
    echo "internal/kernel/sched.go calls k.runq.$fn at lines [$lines], want exactly one site (pushRun's push, runSlice's pop)"
    exit 1
  fi
  if ! grep -q "^internal/kernel/sched.go:$lines:[0-9]*: inlining call to (\*runQueue).$fn\$" <<<"$inl"; then
    echo "(*runQueue).$fn does not inline at internal/kernel/sched.go:$lines"
    exit 1
  fi
done
echo "== Kernel.lookup inlines at every lookup site (two page bounds checks since the UID table is paged) and obs.Histogram.Observe at every observe site in kernel and netw (its growth is append's out-of-line growslice)"
if ! grep -q 'can inline (\*Kernel).lookup$' <<<"$inl"; then
  echo "(*Kernel).lookup no longer inlines"
  exit 1
fi
sites=$(grep -ho --exclude='*_test.go' 'k\.lookup(' internal/kernel/*.go | wc -l)
inlined=$(grep -c 'inlining call to (\*Kernel).lookup$' <<<"$inl")
if [ "$sites" -ne "$inlined" ]; then
  echo "(*Kernel).lookup inlines at $inlined of its $sites call sites in internal/kernel"
  exit 1
fi
if ! grep -q 'can inline (\*Histogram).Observe$' <<<"$(go build -gcflags=-m ./internal/obs 2>&1)"; then
  echo "(*obs.Histogram).Observe no longer inlines: keep its growth to one append"
  exit 1
fi
for pkg in kernel netw; do
  sites=$(grep -h --exclude='*_test.go' '\.Observe(' internal/$pkg/*.go | wc -l)
  inlined=$(grep -c 'inlining call to obs.(\*Histogram).Observe$' <<<"$(go build -gcflags=-m ./internal/$pkg 2>&1)")
  if [ "$sites" -ne "$inlined" ]; then
    echo "(*obs.Histogram).Observe inlines at $inlined of its $sites call sites in internal/$pkg"
    exit 1
  fi
done
echo "== trace.Tracer.slot and the string table's expire inline into Tracer.Log (the chunk step is out of line), and every kernel emit goes through a package-level trace.Site"
inl=$(go build -gcflags=-m ./internal/trace 2>&1)
for fn in '(\*Tracer).slot' '(\*strTable).expire'; do
  if ! grep -q "inlining call to $fn\b" <<<"$inl"; then
    echo "$fn no longer inlines into Tracer.Log"
    exit 1
  fi
done
if grep -rn --include='*.go' 'Emitf(' internal/kernel; then
  echo "internal/kernel calls Emitf: declare a trace.Site in tracesites.go and emit through k.trace"
  exit 1
fi
echo "== no k.trace call in internal/kernel passes a .String() result (an enum is a trace.Name word, named when the record is read; a string costs the string table a lookup per record)"
stringed=$(for f in internal/kernel/*.go; do
  case $f in *_test.go) continue ;; esac
  # join a call's lines that gofmt broke after a comma, then look for .String()
  sed -e ':a' -e '/,$/{N;s/,\n[[:space:]]*/, /;ba' -e '}' "$f" | { grep 'k\.trace(.*\.String()' || true; } | sed "s|^|$f: |"
done)
if [ -n "$stringed" ]; then
  echo "$stringed"
  echo "declare the site with trace.NewNamedSite in tracesites.go and pass trace.Name(value)"
  exit 1
fi

echo "== A/B pairs tool smoke: HEAD against the working tree, exported and built apart, one pair of migrate-storm at --seconds 1; sim_fingerprints must match"
pairs=$(mktemp -d)
trap 'rm -rf "$pairs"' EXIT
go run ./cmd/benchpairs -revs HEAD,. -workloads migrate-storm -seeds 1 -pairs 1 -seconds 1 -dir "$pairs" 2>"$pairs/log" || { cat "$pairs/log"; exit 1; }

echo "== obs smoke export (metrics snapshot + Chrome timeline)"
mkdir -p artifacts
go run ./cmd/demosnet -obs-json artifacts/obs_snapshot.json -trace-out artifacts/obs_timeline.json

echo "== policy tournament (short mode: 32 machines, 4 shards, seeded A/B arms), findings byte-equal to the committed golden"
go run ./cmd/experiments -tournament-short -tournament-json artifacts/tournament_findings.json
cmp artifacts/tournament_findings.json cmd/experiments/testdata/tournament_short_findings.json

echo "OK: all checks passed"
