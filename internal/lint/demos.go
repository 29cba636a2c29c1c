package lint

// This file pins demoslint's configuration for this repository: the
// layering DAG, the determinism scope, and the wire package. The tables
// are the contract — changing an import edge means editing demosLayers in
// the same commit, which is exactly the review point the linter exists to
// create.

// ModulePath is the module demoslint is built for.
const ModulePath = "demosmp"

// demosLayers is the allowed import DAG, package by package. Key rules it
// encodes (DESIGN.md §8):
//
//   - the vocabulary layer (addr, link, msg, sim, memory, trace) sits under
//     everything and must never import kernel;
//   - only kernel (and the composition layers above it) may touch netw
//     delivery internals — processes and services see messages, not frames;
//   - internal/core is the only composition root that wires every
//     subsystem together; the public demosmp package re-exports through it;
//   - proctest and simtest are test scaffolding: no non-test file outside
//     this table's explicit entries may depend on them.
var demosLayers = map[string][]string{
	// vocabulary layer
	"demosmp/internal/addr":   {},
	"demosmp/internal/memory": {},
	"demosmp/internal/sim":    {},
	"demosmp/internal/link":   {"demosmp/internal/addr"},
	"demosmp/internal/msg":    {"demosmp/internal/addr", "demosmp/internal/link", "demosmp/internal/sim"},
	"demosmp/internal/trace":  {"demosmp/internal/addr", "demosmp/internal/sim"},

	// observability plane: vocabulary-tier (imports nothing above trace) so
	// netw, kernel, chaos, and core can all report through it
	"demosmp/internal/obs": {"demosmp/internal/addr", "demosmp/internal/sim", "demosmp/internal/trace"},

	// machine substrate
	"demosmp/internal/dvm": {"demosmp/internal/memory"},
	"demosmp/internal/netw": {"demosmp/internal/addr", "demosmp/internal/msg", "demosmp/internal/obs",
		"demosmp/internal/sim"},

	// process layer
	"demosmp/internal/proc": {"demosmp/internal/addr", "demosmp/internal/dvm", "demosmp/internal/link",
		"demosmp/internal/memory", "demosmp/internal/msg", "demosmp/internal/sim"},
	"demosmp/internal/proctest": {"demosmp/internal/addr", "demosmp/internal/link", "demosmp/internal/memory",
		"demosmp/internal/msg", "demosmp/internal/proc", "demosmp/internal/sim"},
	"demosmp/internal/simtest": {},
	"demosmp/internal/policy":  {"demosmp/internal/addr", "demosmp/internal/msg", "demosmp/internal/sim"},

	// kernel layer: the only package allowed to drive netw delivery
	"demosmp/internal/kernel": {"demosmp/internal/addr", "demosmp/internal/dvm", "demosmp/internal/link",
		"demosmp/internal/memory", "demosmp/internal/msg", "demosmp/internal/netw",
		"demosmp/internal/obs", "demosmp/internal/proc", "demosmp/internal/sim",
		"demosmp/internal/trace"},

	// user-level services (message-only: no kernel, no netw)
	"demosmp/internal/fs": {"demosmp/internal/link", "demosmp/internal/msg",
		"demosmp/internal/proc", "demosmp/internal/sim"},
	"demosmp/internal/memsched": {"demosmp/internal/addr", "demosmp/internal/msg", "demosmp/internal/proc"},
	"demosmp/internal/procmgr": {"demosmp/internal/addr", "demosmp/internal/link", "demosmp/internal/memsched",
		"demosmp/internal/msg", "demosmp/internal/policy", "demosmp/internal/proc",
		"demosmp/internal/sim"},
	"demosmp/internal/shell": {"demosmp/internal/addr", "demosmp/internal/link", "demosmp/internal/msg",
		"demosmp/internal/proc", "demosmp/internal/procmgr", "demosmp/internal/switchboard"},
	"demosmp/internal/switchboard": {"demosmp/internal/link", "demosmp/internal/proc"},
	"demosmp/internal/workload": {"demosmp/internal/dvm", "demosmp/internal/link",
		"demosmp/internal/proc", "demosmp/internal/sim"},

	// fault-injection plane: drives a composed cluster, so it sits above
	// core; nothing inside the simulator may import it back
	"demosmp/internal/chaos": {"demosmp/internal/addr", "demosmp/internal/core",
		"demosmp/internal/kernel", "demosmp/internal/msg", "demosmp/internal/netw",
		"demosmp/internal/obs", "demosmp/internal/sim", "demosmp/internal/workload"},

	// experiment plane: the policy tournament harness drives composed
	// clusters like chaos does, so it also sits above core; the simulator
	// never imports it back
	"demosmp/internal/experiment": {"demosmp/internal/addr", "demosmp/internal/core",
		"demosmp/internal/kernel", "demosmp/internal/link", "demosmp/internal/msg",
		"demosmp/internal/policy", "demosmp/internal/sim", "demosmp/internal/workload"},

	// composition root and public surface
	"demosmp/internal/core": {"demosmp/internal/addr", "demosmp/internal/dvm", "demosmp/internal/fs",
		"demosmp/internal/kernel", "demosmp/internal/link", "demosmp/internal/memsched",
		"demosmp/internal/netw", "demosmp/internal/obs", "demosmp/internal/policy",
		"demosmp/internal/proc", "demosmp/internal/procmgr", "demosmp/internal/shell",
		"demosmp/internal/sim", "demosmp/internal/switchboard", "demosmp/internal/trace",
		"demosmp/internal/workload"},
	"demosmp": {"demosmp/internal/addr", "demosmp/internal/core", "demosmp/internal/dvm",
		"demosmp/internal/fs", "demosmp/internal/kernel", "demosmp/internal/link",
		"demosmp/internal/netw", "demosmp/internal/obs", "demosmp/internal/policy",
		"demosmp/internal/sim", "demosmp/internal/workload"},

	// analysis layer: stdlib only, nothing from the simulator
	"demosmp/internal/lint": {},

	// binaries and examples
	"demosmp/cmd/benchpairs": {},
	"demosmp/cmd/demosh":     {"demosmp", "demosmp/internal/kernel"},
	"demosmp/cmd/demoslint":  {"demosmp/internal/lint"},
	"demosmp/cmd/demosnet": {"demosmp", "demosmp/internal/addr", "demosmp/internal/kernel",
		"demosmp/internal/link", "demosmp/internal/obs"},
	"demosmp/cmd/experiments": {"demosmp", "demosmp/internal/addr",
		"demosmp/internal/core", "demosmp/internal/experiment", "demosmp/internal/kernel",
		"demosmp/internal/link", "demosmp/internal/msg", "demosmp/internal/netw",
		"demosmp/internal/obs", "demosmp/internal/policy",
		"demosmp/internal/trace", "demosmp/internal/workload"},
	"demosmp/examples/faulttolerance": {"demosmp"},
	"demosmp/examples/fileserver":     {"demosmp"},
	"demosmp/examples/loadbalance":    {"demosmp"},
	"demosmp/examples/quickstart":     {"demosmp"},
	"demosmp/examples/vmfile":         {"demosmp", "demosmp/internal/kernel"},
}

// DemosAnalyzers returns the full demoslint suite configured for this
// repository.
func DemosAnalyzers() []Analyzer {
	return []Analyzer{
		Determinism{
			Prefix: ModulePath + "/internal/",
			// sim owns the seeded PRNG; chaos carries its own explicitly
			// seeded stream so fault schedules replay independently of
			// how much randomness the simulation itself consumed.
			Exempt: map[string]bool{
				ModulePath + "/internal/sim":   true,
				ModulePath + "/internal/chaos": true,
			},
		},
		MapOrder{},
		Layering{Module: ModulePath, Allow: demosLayers},
		HotPathAlloc{},
		WirePair{PkgPath: ModulePath + "/internal/msg"},
		Ownership{MsgPath: ModulePath + "/internal/msg"},
		Inventory{
			Pkg:        ModulePath + "/internal/kernel",
			ConstType:  "KillPoint",
			ConfigType: "Config",
			// Every fault kind the chaos injector drives must be exercised
			// from a sharded test: the shard-local fault plane composes
			// per-kind (partition mirrors, burst horizons, dup/delay
			// one-shots, kill rotations, checkpoint pulses), so one-shard
			// coverage alone can rot the cross-shard paths.
			// TestChaosKindInventory pins this table.
			ChaosKinds: map[string][]string{
				"partition":  {"PartitionEvery", "Partition"},
				"loss-burst": {"BurstEvery", "LossBurst"},
				"duplicate":  {"DupEvery", "DuplicateNext"},
				"delay":      {"DelayEvery", "DelayNext"},
				"crash":      {"MaxKills", "Crash"},
				"checkpoint": {"CheckpointEvery", "SaveCheckpoint"},
			},
			ShardMarkers: []string{"Shards", "ShardParallel"},
		},
		DeadCode{
			Prefix: ModulePath + "/internal/",
			// The frozen benchmark is its own module and compiles against
			// this surface; the loader skips its _src directory.
			Consumers: []string{"bench/_src"},
			Wire:      ModulePath + "/internal/msg",
			Scaffold: map[string]bool{
				ModulePath + "/internal/proctest": true,
				ModulePath + "/internal/simtest":  true,
			},
			// Used only by tests that an export_test.go cannot serve.
			Keep: map[string]bool{
				// chaos soaks assert their sharded runs used goroutines.
				ModulePath + "/internal/core.Cluster.ParallelRounds": true,
				// kernel swap tests: pages moved, and no swap leaked.
				ModulePath + "/internal/memory.Image.SwappedPages": true,
				ModulePath + "/internal/memory.Store.Used":         true,
				// workload's state codec tests walk every registered kind.
				ModulePath + "/internal/proc.Registry.Kinds": true,
				// kernel's site test walks every registered trace site.
				ModulePath + "/internal/trace.Sites": true,
				// the obs golden and the chaos soaks compare snapshot text.
				ModulePath + "/internal/obs.Snapshot.WriteText": true,
				// chaos's oracle, which only its own soaks call: as a test
				// file it would strand the kernel, core and obs accessors it
				// reads, each then needing an entry here.
				ModulePath + "/internal/chaos.CheckInvariants": true,
				ModulePath + "/internal/chaos.CheckDelivery":   true,
				ModulePath + "/internal/chaos.CheckRegistry":   true,
				// chaos's injector, which only its own soaks drive: as a
				// test file it would strand the fault hooks it arms
				// (Kernel.SetFaultHook, Engine.AfterWeakFault, Cluster.NetLossy).
				ModulePath + "/internal/chaos.New":            true,
				ModulePath + "/internal/chaos.Injector.Stop":  true,
				ModulePath + "/internal/chaos.Injector.Kills": true,
			},
		},
	}
}
