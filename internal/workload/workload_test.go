package workload_test

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/netw"
	"demosmp/internal/proc"
	"demosmp/internal/sim"
	"demosmp/internal/workload"
)

func rig(t *testing.T, machines int) (*sim.Engine, map[int]*kernel.Kernel) {
	t.Helper()
	eng := sim.NewEngine(5)
	net := netw.New(eng, netw.Config{})
	reg := proc.NewRegistry()
	reg.Register(workload.SinkKind, func() proc.Body { return &workload.Sink{} })
	reg.Register(workload.ChatterKind, func() proc.Body { return &workload.Chatter{} })
	reg.Register(workload.LinkHolderKind, func() proc.Body { return &workload.LinkHolder{} })
	ks := map[int]*kernel.Kernel{}
	for i := 1; i <= machines; i++ {
		ks[i] = kernel.New(addr.MachineID(i), eng, net, kernel.Config{Registry: reg})
	}
	return eng, ks
}

func TestCPUBoundPrograms(t *testing.T) {
	eng, ks := rig(t, 1)
	pid, err := ks[1].Spawn(kernel.SpawnSpec{Program: workload.CPUBound(123)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	e, ok := ks[1].Exit(pid)
	if !ok || e.Code != workload.CPUBoundResult(123) {
		t.Fatalf("exit %v %v", e, ok)
	}
}

func TestCPUBoundSizedImage(t *testing.T) {
	for _, size := range []int{1024, 8192, 65536} {
		p := workload.CPUBoundSized(50, size)
		if p.ImageSize() < size {
			t.Fatalf("image %d < requested %d", p.ImageSize(), size)
		}
	}
	eng, ks := rig(t, 1)
	pid, _ := ks[1].Spawn(kernel.SpawnSpec{Program: workload.CPUBoundSized(50, 16384)})
	eng.Run()
	if e, _ := ks[1].Exit(pid); e.Code != workload.CPUBoundResult(50) {
		t.Fatalf("padded program broke: %d", e.Code)
	}
}

func TestEchoAndRequestPair(t *testing.T) {
	eng, ks := rig(t, 2)
	server, _ := ks[1].Spawn(kernel.SpawnSpec{Program: workload.EchoServer(7)})
	client, _ := ks[2].Spawn(kernel.SpawnSpec{
		Program: workload.RequestClient(7),
		Links:   []link.Link{{Addr: addr.At(server, 1)}},
	})
	eng.Run()
	if e, _ := ks[2].Exit(client); e.Code != 7 {
		t.Fatalf("client rounds: %d", e.Code)
	}
	if e, _ := ks[1].Exit(server); e.Code != 0 {
		t.Fatalf("server exit: %d", e.Code)
	}
}

func TestChatterToSink(t *testing.T) {
	eng, ks := rig(t, 2)
	sink := &workload.Sink{}
	sinkPID, _ := ks[2].Spawn(kernel.SpawnSpec{Body: sink})
	chatter, _ := ks[1].Spawn(kernel.SpawnSpec{
		Body:  &workload.Chatter{N: 5, Interval: 100},
		Links: []link.Link{{Addr: addr.At(sinkPID, 2)}},
	})
	eng.Run()
	if e, _ := ks[1].Exit(chatter); e.Code != 5 {
		t.Fatalf("chatter sent %d", e.Code)
	}
	if len(sink.Got) != 5 || sink.Got[0] != "chat-0" {
		t.Fatalf("sink got %v", sink.Got)
	}
	// One timer chain: no tick outlives the chatter.
	for m, k := range ks {
		if dl := k.Stats().DeadLetters; dl != 0 {
			t.Fatalf("machine %d has %d dead letters; a Chatter tick outlived its process", m, dl)
		}
	}
}

func TestLinkHolderPoke(t *testing.T) {
	eng, ks := rig(t, 2)
	sink := &workload.Sink{}
	sinkPID, _ := ks[2].Spawn(kernel.SpawnSpec{Body: sink})
	holder, _ := ks[1].Spawn(kernel.SpawnSpec{
		Body: &workload.LinkHolder{},
		Links: []link.Link{
			{Addr: addr.At(sinkPID, 2)},
			{Addr: addr.At(sinkPID, 2)},
			{Addr: addr.At(sinkPID, 2)},
		},
	})
	ks[1].GiveMessage(holder, addr.KernelAddr(1), []byte("poke"))
	eng.Run()
	if len(sink.Got) != 3 {
		t.Fatalf("holder sent %d messages, want one per held link", len(sink.Got))
	}
}

func TestSelfMigratorProgramAssembles(t *testing.T) {
	// Full behavior is covered in core; here just validate the program.
	p := workload.SelfMigrator(100, 2)
	if p == nil || len(p.Code) == 0 {
		t.Fatal("empty program")
	}
}

func TestStagePipeline(t *testing.T) {
	eng, ks := rig(t, 2)
	sink := &workload.Sink{}
	sinkPID, _ := ks[2].Spawn(kernel.SpawnSpec{Body: sink})
	stage, _ := ks[1].Spawn(kernel.SpawnSpec{
		Body:  &workload.Stage{},
		Links: []link.Link{{Addr: addr.At(sinkPID, 2)}},
	})
	src, _ := ks[1].Spawn(kernel.SpawnSpec{
		Body:  &workload.Chatter{N: 4, Interval: 50},
		Links: []link.Link{{Addr: addr.At(stage, 1)}},
	})
	eng.Run()
	if e, _ := ks[1].Exit(src); e.Code != 4 {
		t.Fatalf("source sent %d", e.Code)
	}
	if len(sink.Got) != 4 {
		t.Fatalf("sink got %d messages through the stage", len(sink.Got))
	}
	body, _ := ks[1].BodyOf(stage)
	if fwd := body.(*workload.Stage).Forwarded; fwd != 4 {
		t.Fatalf("stage forwarded %d", fwd)
	}
}
