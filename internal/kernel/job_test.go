package kernel_test

import (
	"strings"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/msg"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

// TestJobArmsOneTimerAndExitsOnce pins the stateless workload.Job's rule
// (a step that finds its queue empty arms the timer; the timer's delivery
// ends the job) through every way the kernel steps a process: spawned,
// migrated while waiting on its timer, migrated while Ready before its
// first step, and suspended and resumed while waiting or while Ready
// before its first step. In each the cluster fires exactly one
// kernel:timer, the job exits once, with its service time as the code, on
// the machine it ended on, and no machine holds more than a forwarding
// address for it.
func TestJobArmsOneTimerAndExitsOnce(t *testing.T) {
	const service = 2000
	for _, tt := range []struct {
		name string
		// busy spawns a CPU-bound process ahead of the job, so the job
		// is still Ready, unstepped, when the control message lands.
		busy bool
		// act runs once the job is spawned; it returns the machine the
		// job must exit on and the state the migration must find it in
		// ("" for no migration).
		act func(c *tc, pid addr.ProcessID) (exitOn addr.MachineID, frozen string)
	}{
		{"spawned", false, func(c *tc, pid addr.ProcessID) (addr.MachineID, string) {
			return 1, ""
		}},
		{"migrated-waiting", false, func(c *tc, pid addr.ProcessID) (addr.MachineID, string) {
			c.runFor(500)
			if info, _ := c.k(1).Process(pid); info.State != kernel.StateWaiting {
				c.t.Fatalf("job is %v before the migration, want waiting", info.State)
			}
			c.migrate(1, pid, 1, 2)
			return 2, "waiting"
		}},
		{"migrated-ready", true, func(c *tc, pid addr.ProcessID) (addr.MachineID, string) {
			c.migrate(1, pid, 1, 2)
			return 2, "ready"
		}},
		{"suspended-waiting", false, func(c *tc, pid addr.ProcessID) (addr.MachineID, string) {
			c.runFor(500)
			c.k(1).GiveControl(pid, msg.OpSuspend, nil)
			c.runFor(2 * service) // the timer fires while the job is suspended
			if info, _ := c.k(1).Process(pid); info.State != kernel.StateSuspended || info.QueueLen != 1 {
				c.t.Fatalf("job before the resume: %+v, want suspended with its timer queued", info)
			}
			c.k(1).GiveControl(pid, msg.OpResume, nil)
			return 1, ""
		}},
		{"suspended-ready", true, func(c *tc, pid addr.ProcessID) (addr.MachineID, string) {
			c.k(1).GiveControl(pid, msg.OpSuspend, nil)
			c.runFor(2 * service)
			if info, _ := c.k(1).Process(pid); info.State != kernel.StateSuspended || info.QueueLen != 0 {
				c.t.Fatalf("job before the resume: %+v, want suspended with an empty queue", info)
			}
			c.k(1).GiveControl(pid, msg.OpResume, nil)
			return 1, ""
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			c := newTC(t, 2, func(cfg *kernel.Config) {
				if _, err := cfg.Registry.New(workload.JobKind); err != nil {
					cfg.Registry.Register(workload.JobKind, func() proc.Body { return &workload.Job{} })
				}
			})
			timers := 0
			c.eng.OnFire = func(name string, _ sim.Time) {
				if name == "kernel:timer" {
					timers++
				}
			}
			if tt.busy {
				if _, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &workload.Spinner{Work: 5 * kernel.Quantum}}); err != nil {
					t.Fatal(err)
				}
			}
			pid, err := c.k(1).Spawn(kernel.SpawnSpec{Body: &workload.Job{Service: service}})
			if err != nil {
				t.Fatal(err)
			}
			exitOn, frozen := tt.act(c, pid)
			c.run()
			if timers != 1 {
				t.Errorf("the cluster fired %d timers, want 1", timers)
			}
			info, at := c.exitOf(pid)
			if at != exitOn || info.Code != service || info.Err != nil {
				t.Errorf("job exited on m%d with %+v, want m%d with code %d", at, info, exitOn, service)
			}
			exited := uint64(0)
			for m := 1; m <= 2; m++ {
				exited += c.k(m).Stats().Exited
				if info, ok := c.k(m).Process(pid); ok && info.State != kernel.StateForwarder {
					t.Errorf("m%d still holds the job: %+v", m, info)
				}
			}
			if want := map[bool]uint64{false: 1, true: 2}[tt.busy]; exited != want {
				t.Errorf("%d exits, want %d", exited, want)
			}
			if frozen != "" {
				var seen []string
				for _, r := range c.tr.Records() {
					if r.Event() == "step1-remove-from-execution" {
						seen = append(seen, r.Detail())
					}
				}
				if len(seen) != 1 || !strings.HasSuffix(seen[0], "was "+frozen) {
					t.Errorf("migration froze the job as %q, want one freeze of a %s job", seen, frozen)
				}
			}
		})
	}
}
