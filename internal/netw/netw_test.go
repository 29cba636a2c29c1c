package netw

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
	"demosmp/internal/sim"
)

type recorder struct {
	got []*msg.Message
	at  []sim.Time
	eng *sim.Engine
}

func (r *recorder) DeliverFrame(m *msg.Message) {
	r.got = append(r.got, m)
	r.at = append(r.at, r.eng.Now())
}

func setup(cfg Config) (*sim.Engine, *Network, *recorder, *recorder) {
	eng := sim.NewEngine(99)
	n := New(eng, cfg)
	r1 := &recorder{eng: eng}
	r2 := &recorder{eng: eng}
	n.Attach(1, r1)
	n.Attach(2, r2)
	return eng, n, r1, r2
}

func frame(body int) *msg.Message {
	return &msg.Message{
		Kind: msg.KindUser,
		From: addr.KernelAddr(1),
		To:   addr.KernelAddr(2),
		Body: make([]byte, body),
	}
}

func TestDeliveryAndLatency(t *testing.T) {
	eng, n, _, r2 := setup(Config{Latency: 1000, PerByteNanos: 1000})
	m := frame(100)
	size := m.WireSize()
	n.Send(1, 2, m)
	eng.Run()
	if len(r2.got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(r2.got))
	}
	want := sim.Time(1000 + size) // 1µs per byte
	if r2.at[0] != want {
		t.Fatalf("delivered at %v, want %v", r2.at[0], want)
	}
	if r2.got[0].Hops != 1 {
		t.Fatalf("hops = %d, want 1", r2.got[0].Hops)
	}
}

func TestOrderingPreservedLossless(t *testing.T) {
	eng, n, _, r2 := setup(Config{})
	for i := 0; i < 20; i++ {
		m := frame(8)
		m.Seq = uint32(i)
		n.Send(1, 2, m)
	}
	eng.Run()
	if len(r2.got) != 20 {
		t.Fatalf("delivered %d, want 20", len(r2.got))
	}
	for i, m := range r2.got {
		if m.Seq != uint32(i) {
			t.Fatalf("order broken at %d: seq %d", i, m.Seq)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, n, _, _ := setup(Config{})
	m := frame(50)
	size := uint64(m.WireSize())
	n.Send(1, 2, m)
	n.Send(1, 2, frame(50))
	eng.Run()
	s := n.Stats()
	if s.Frames != 2 || s.Delivered != 2 {
		t.Fatalf("frames=%d delivered=%d", s.Frames, s.Delivered)
	}
	if s.Bytes != 2*size {
		t.Fatalf("bytes=%d want %d", s.Bytes, 2*size)
	}
	if s.ByKind[msg.KindUser] != 2 {
		t.Fatalf("byKind=%v", s.ByKind)
	}
	pm := s.PerMachine[addr.MachineID(1)]
	if pm.FramesOut != 2 || pm.BytesOut != 2*size {
		t.Fatalf("per-machine out: %+v", pm)
	}
	pm2 := s.PerMachine[addr.MachineID(2)]
	if pm2.FramesIn != 2 {
		t.Fatalf("per-machine in: %+v", pm2)
	}
}

func TestReliableUnderLoss(t *testing.T) {
	eng, n, _, r2 := setup(Config{LossRate: 0.3, RetransTimeout: 2000, MaxRetries: 100})
	const N = 50
	for i := 0; i < N; i++ {
		m := frame(16)
		m.Seq = uint32(i)
		n.Send(1, 2, m)
	}
	eng.Run()
	if len(r2.got) != N {
		t.Fatalf("delivered %d, want %d (reliability violated)", len(r2.got), N)
	}
	seen := map[uint32]bool{}
	for _, m := range r2.got {
		if seen[m.Seq] {
			t.Fatalf("duplicate delivery of seq %d", m.Seq)
		}
		seen[m.Seq] = true
	}
	s := n.Stats()
	if s.Retransmits == 0 {
		t.Fatal("expected retransmissions at 30% loss")
	}
}

func TestDownMachineDropsThenDead(t *testing.T) {
	eng, n, o1, r2 := setupOwned(Config{LossRate: 0.0001, RetransTimeout: 1000, MaxRetries: 3})
	n.SetDown(2, true)
	n.Send(1, 2, pooledFrame(o1, 2))
	stepUntilDead(t, eng, n)
	if len(r2.got) != 0 {
		t.Fatal("down machine received a frame")
	}
	if s := n.Stats(); s.OrphanDropped != 0 {
		t.Fatalf("OrphanDropped=%d: an ARQ frame lost at a down receiver is counted Dead only", s.OrphanDropped)
	}
}

func TestDownSenderSilent(t *testing.T) {
	eng, n, _, r2 := setup(Config{})
	n.SetDown(1, true)
	n.Send(1, 2, frame(8))
	eng.Run()
	if len(r2.got) != 0 {
		t.Fatal("crashed sender transmitted")
	}
}

func TestRecovery(t *testing.T) {
	eng, n, _, r2 := setup(Config{LossRate: 0.0001, RetransTimeout: 1000, MaxRetries: 50})
	n.SetDown(2, true)
	n.Send(1, 2, frame(8))
	eng.After(5000, "up", func() { n.SetDown(2, false) })
	eng.Run()
	if len(r2.got) != 1 {
		t.Fatalf("frame not recovered after machine came back: %d", len(r2.got))
	}
}

func TestLocalSendPanics(t *testing.T) {
	_, n, _, _ := setup(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("local send did not panic")
		}
	}()
	n.Send(1, 1, frame(1))
}

func TestDoubleAttachPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, Config{})
	n.Attach(1, &recorder{eng: eng})
	defer func() {
		if recover() == nil {
			t.Fatal("double attach did not panic")
		}
	}()
	n.Attach(1, &recorder{eng: eng})
}

func TestTransitTimeScalesWithSize(t *testing.T) {
	_, n, _, _ := setup(Config{Latency: 100, PerByteNanos: 2000})
	small, big := n.TransitTime(10), n.TransitTime(1000)
	if small >= big {
		t.Fatalf("transit time not increasing: %v vs %v", small, big)
	}
	if small != 100+20 {
		t.Fatalf("small transit = %v, want 120", small)
	}
}

func TestStatsCloneIsDeep(t *testing.T) {
	eng, n, _, _ := setup(Config{})
	n.Send(1, 2, frame(1))
	eng.Run()
	s := n.Stats()
	s.ByKind[msg.KindUser] = 999
	if n.Stats().ByKind[msg.KindUser] == 999 {
		t.Fatal("Stats() shares maps with the live counters")
	}
}
