// Supplementary benchmarks: substrate costs (real wall time for the VM
// interpreter; simulated time for messaging) and migration robustness
// under packet loss.
package demosmp_test

import (
	"testing"

	"demosmp"
	"demosmp/internal/addr"
	"demosmp/internal/dvm"
	"demosmp/internal/kernel"
	"demosmp/internal/netw"
	"demosmp/internal/workload"
)

// BenchmarkVMExecution measures the DVM interpreter itself in real time:
// instructions per second executing the standard CPU-bound loop.
func BenchmarkVMExecution(b *testing.B) {
	p := workload.CPUBound(1 << 30) // effectively endless
	img, err := p.BuildImage(nil)
	if err != nil {
		b.Fatal(err)
	}
	vm := &dvm.VM{Mem: img, CPU: dvm.CPU{PC: p.Entry, SP: uint32(img.Size())}}
	sys := nopSyscalls{}
	b.ResetTimer()
	executed := 0
	for executed < b.N {
		used, st := vm.Step(sys, b.N-executed)
		executed += used
		if st != dvm.Running {
			b.Fatalf("status %v", st)
		}
	}
	b.ReportMetric(float64(b.N), "instructions")
}

type nopSyscalls struct{}

func (nopSyscalls) Send(uint16, []byte, ...uint16) error              { return nil }
func (nopSyscalls) Recv(int) ([]byte, uint16, uint16, bool)           { return nil, 0, 0, false }
func (nopSyscalls) CreateLink(uint16, uint32, uint32) (uint16, error) { return 1, nil }
func (nopSyscalls) DestroyLink(uint16) error                          { return nil }
func (nopSyscalls) PID() (uint16, uint16)                             { return 1, 1 }
func (nopSyscalls) Now() uint64                                       { return 0 }
func (nopSyscalls) Print([]byte)                                      {}
func (nopSyscalls) MigrateSelf(uint16) error                          { return nil }
func (nopSyscalls) Rand() uint32                                      { return 4 }

// BenchmarkLocalMessage / BenchmarkRemoteMessage: the baseline cost of one
// request/reply exchange, same-machine vs cross-machine — the raw numbers
// every forwarding cost in §6 is relative to.
func BenchmarkLocalMessage(b *testing.B)  { benchExchange(b, 1) }
func BenchmarkRemoteMessage(b *testing.B) { benchExchange(b, 2) }

func benchExchange(b *testing.B, clientMachine int) {
	var total float64
	for i := 0; i < b.N; i++ {
		c := mustCluster(b, demosmp.Options{})
		server, _ := c.Spawn(1, kernel.SpawnSpec{Program: workload.EchoServer(10)})
		client, _ := c.Spawn(clientMachine, kernel.SpawnSpec{
			Program: workload.RequestClient(10),
			Links:   []demosmp.Link{{Addr: addr.At(server, 1)}},
		})
		c.Run()
		e, _, ok := c.ExitOf(client)
		if !ok || e.Code != 10 {
			b.Fatal("exchange failed")
		}
		total += float64(c.Now()) / 10
	}
	b.ReportMetric(total/float64(b.N), "simus/roundtrip")
}

// BenchmarkMigrationLossy: migration cost under 10% frame loss — the
// protocol still completes via the ARQ layer, at the price of retransmits
// and latency.
func BenchmarkMigrationLossy(b *testing.B) {
	var lat, retrans float64
	for i := 0; i < b.N; i++ {
		c := mustCluster(b, demosmp.Options{
			Machines: 3,
			Net:      netw.Config{LossRate: 0.1, RetransTimeout: 3000, MaxRetries: 200},
		})
		pid, _ := c.SpawnProgram(1, demosmp.CPUBoundSized(200000, 16<<10))
		c.RunFor(3000)
		c.Migrate(pid, 2)
		c.Run()
		reps := c.Reports()
		if len(reps) != 1 || !reps[0].OK {
			b.Fatal("lossy migration failed")
		}
		e, m, ok := c.ExitOf(pid)
		if !ok || m != 2 || e.Code != demosmp.CPUBoundResult(200000) {
			b.Fatal("lossy migration corrupted the process")
		}
		lat += float64(reps[0].FreezeMicros())
		retrans += float64(c.Stats().Net.Retransmits)
	}
	b.ReportMetric(lat/float64(b.N), "simus/op")
	b.ReportMetric(retrans/float64(b.N), "retransmits/mig")
}
