package policy

import (
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/msg"
)

func pid(l uint16) addr.ProcessID { return addr.ProcessID{Creator: 1, Local: addr.LocalUID(l)} }

func load(m addr.MachineID, cpu uint8, procs ...msg.ProcLoad) msg.LoadReport {
	return msg.LoadReport{Machine: m, CPUPercent: cpu, Ready: uint16(len(procs)), Procs: procs}
}

func pl(l uint16, cpu uint32) msg.ProcLoad {
	return msg.ProcLoad{PID: pid(l), CPUMicros: cpu}
}

func TestManualNeverMoves(t *testing.T) {
	p := Manual{}
	if d := p.Decide(0, []msg.LoadReport{load(1, 100, pl(1, 9999)), load(2, 0)}); d != nil {
		t.Fatalf("manual policy decided: %v", d)
	}
	if p.Name() != "manual" {
		t.Fatal("name")
	}
}

func TestThresholdMovesHungriest(t *testing.T) {
	p := NewThreshold(80, 20, 1000)
	loads := []msg.LoadReport{
		load(1, 95, pl(1, 5000), pl(2, 90000), pl(3, 100)),
		load(2, 5),
		load(3, 50),
	}
	d := p.Decide(100, loads)
	if len(d) != 1 {
		t.Fatalf("decisions: %v", d)
	}
	if d[0].PID != pid(2) || d[0].From != 1 || d[0].Dest != 2 {
		t.Fatalf("wrong move: %+v", d[0])
	}
}

func TestThresholdHysteresisGap(t *testing.T) {
	p := NewThreshold(80, 20, 1000)
	// Busy but not past the high water.
	if d := p.Decide(0, []msg.LoadReport{load(1, 70, pl(1, 9000), pl(2, 9000)), load(2, 5)}); d != nil {
		t.Fatalf("moved below high water: %v", d)
	}
	// Destination not idle enough.
	if d := p.Decide(0, []msg.LoadReport{load(1, 95, pl(1, 9000), pl(2, 9000)), load(2, 40)}); d != nil {
		t.Fatalf("moved to busy destination: %v", d)
	}
}

func TestThresholdCooldown(t *testing.T) {
	p := NewThreshold(80, 20, 1000)
	loads := []msg.LoadReport{load(1, 95, pl(1, 9000), pl(2, 5000)), load(2, 5)}
	d1 := p.Decide(100, loads)
	if len(d1) != 1 || d1[0].PID != pid(1) {
		t.Fatalf("first: %v", d1)
	}
	// Same picture immediately after: the moved process is cooling down,
	// so the other one is picked.
	d2 := p.Decide(200, loads)
	if len(d2) != 1 || d2[0].PID != pid(2) {
		t.Fatalf("second: %v", d2)
	}
	// Everyone cooling down: nothing moves.
	if d3 := p.Decide(300, loads); d3 != nil {
		t.Fatalf("third: %v", d3)
	}
	// After the cooldown both are movable again.
	if d4 := p.Decide(2000, loads); len(d4) != 1 {
		t.Fatalf("post-cooldown: %v", d4)
	}
}

func TestThresholdWontEmptyMachine(t *testing.T) {
	p := NewThreshold(80, 20, 1000)
	if d := p.Decide(0, []msg.LoadReport{load(1, 95, pl(1, 9000)), load(2, 5)}); d != nil {
		t.Fatalf("moved the only process: %v", d)
	}
}

func TestThresholdIgnoresIdleProcesses(t *testing.T) {
	p := NewThreshold(80, 20, 1000)
	loads := []msg.LoadReport{load(1, 95, pl(1, 10), pl(2, 10)), load(2, 5)}
	if d := p.Decide(0, loads); d != nil {
		t.Fatalf("moved an idle process: %v", d)
	}
}

func TestCommAffinity(t *testing.T) {
	p := NewCommAffinity(10, 1000)
	loads := []msg.LoadReport{
		{Machine: 1, Procs: []msg.ProcLoad{
			{PID: pid(1), TopPeer: 2, TopPeerMsgs: 50},
			{PID: pid(2), TopPeer: 1, TopPeerMsgs: 99},  // already local
			{PID: pid(3), TopPeer: 2, TopPeerMsgs: 3},   // too little traffic
			{PID: pid(4), TopPeer: 0, TopPeerMsgs: 100}, // no peer
		}},
		{Machine: 2},
	}
	d := p.Decide(0, loads)
	if len(d) != 1 || d[0].PID != pid(1) || d[0].Dest != 2 {
		t.Fatalf("affinity: %v", d)
	}
	// Cooldown suppresses a repeat.
	if d2 := p.Decide(100, loads); d2 != nil {
		t.Fatalf("no cooldown: %v", d2)
	}
}

func TestCommAffinityMaxMoves(t *testing.T) {
	p := NewCommAffinity(10, 1000)
	p.MaxMoves = 2
	// Five qualifying processes; traffic ranks pid5 > pid4 > the rest.
	loads := []msg.LoadReport{
		{Machine: 1, Procs: []msg.ProcLoad{
			{PID: pid(1), TopPeer: 2, TopPeerMsgs: 20},
			{PID: pid(2), TopPeer: 2, TopPeerMsgs: 30},
			{PID: pid(3), TopPeer: 2, TopPeerMsgs: 40},
			{PID: pid(4), TopPeer: 2, TopPeerMsgs: 50},
			{PID: pid(5), TopPeer: 2, TopPeerMsgs: 60},
		}},
		{Machine: 2},
	}
	d := p.Decide(0, loads)
	if len(d) != 2 {
		t.Fatalf("cap ignored: %v", d)
	}
	if d[0].PID != pid(5) || d[1].PID != pid(4) {
		t.Fatalf("cap must keep the chattiest first: %v", d)
	}
	// The capped-out processes were not charged a cooldown: they are
	// eligible again on the very next sweep.
	d2 := p.Decide(100, loads)
	if len(d2) != 2 || d2[0].PID != pid(3) || d2[1].PID != pid(2) {
		t.Fatalf("next sweep: %v", d2)
	}
}

func TestDrain(t *testing.T) {
	p := NewDrain(2)
	loads := []msg.LoadReport{
		load(1, 80),
		load(2, 50, pl(1, 100), pl(2, 100)),
		load(3, 10),
	}
	d := p.Decide(0, loads)
	if len(d) != 2 {
		t.Fatalf("drain: %v", d)
	}
	// Round-robin starting from the calmest survivor: m3 then m1.
	if d[0].Dest != 3 || d[1].Dest != 1 {
		t.Fatalf("drain must spread evacuees round-robin: %+v", d)
	}
	for _, dec := range d {
		if dec.From != 2 {
			t.Fatalf("drain source: %+v", dec)
		}
	}
	// Already-ordered processes are not re-ordered.
	if d2 := p.Decide(100, loads); d2 != nil {
		t.Fatalf("drain repeated orders: %v", d2)
	}
}

func TestDrainSpreadsEvacuees(t *testing.T) {
	// Six evacuees over three survivors: no survivor receives more than
	// its round-robin share — the old behavior dumped all six on one.
	procs := []msg.ProcLoad{pl(1, 1), pl(2, 1), pl(3, 1), pl(4, 1), pl(5, 1), pl(6, 1)}
	p := NewDrain(9)
	loads := []msg.LoadReport{
		load(9, 50, procs...), load(1, 30), load(2, 20), load(3, 10),
	}
	d := p.Decide(0, loads)
	if len(d) != 6 {
		t.Fatalf("drain: %v", d)
	}
	got := map[addr.MachineID]int{}
	for _, dec := range d {
		got[dec.Dest]++
	}
	if got[1] != 2 || got[2] != 2 || got[3] != 2 {
		t.Fatalf("uneven evacuation spread: %v", got)
	}
}

func TestDrainNoTarget(t *testing.T) {
	p := NewDrain(1)
	if d := p.Decide(0, []msg.LoadReport{load(1, 50, pl(1, 1))}); d != nil {
		t.Fatalf("drained with nowhere to go: %v", d)
	}
}

func TestNames(t *testing.T) {
	if NewThreshold(1, 1, 1).Name() != "threshold" ||
		NewDrain(1).Name() != "drain" {
		t.Fatal("policy names")
	}
}
