package policy

import (
	"testing"

	"demosmp/internal/msg"
	"demosmp/internal/obs"
)

func TestCostModelDefaultsAndPayback(t *testing.T) {
	c := DefaultCostModel()
	price := c.MigrationMicros()
	if price <= 0 {
		t.Fatalf("price = %d", price)
	}
	// A gain that repays the price within the horizon is worthwhile.
	if !c.Worthwhile(price) {
		t.Fatal("gain == price per period must be worthwhile")
	}
	if c.Worthwhile(price / (c.PaybackPeriods + 1)) {
		t.Fatal("gain below the horizon share must not be worthwhile")
	}
}

func TestCostModelCalibrate(t *testing.T) {
	c := DefaultCostModel()
	recs := []obs.MigrationRecord{
		{Start: 100, End: 1100, AdminBytes: 60, ForwardsAbsorbed: 4, OK: true},
		{Start: 200, End: 1400, AdminBytes: 80, ForwardsAbsorbed: 0, OK: true},
		{Start: 0, End: 99999, AdminBytes: 999, OK: false}, // aborted: ignored
	}
	if n := c.Calibrate(recs); n != 2 {
		t.Fatalf("calibrated %d records", n)
	}
	if c.FreezeMicros != 1100 { // mean of 1000 and 1200
		t.Fatalf("freeze = %d", c.FreezeMicros)
	}
	if c.AdminBytes != 70 || c.ForwardsAbsorbed != 2 {
		t.Fatalf("admin %d forwards %d", c.AdminBytes, c.ForwardsAbsorbed)
	}
	if n := c.Calibrate(nil); n != 0 {
		t.Fatal("empty ledger must be a no-op")
	}
}

func TestCostModelAffinityGain(t *testing.T) {
	c := DefaultCostModel()
	g := c.AffinityGain(msg.ProcLoad{TopPeerMsgs: 10})
	if g != 10*c.CrossMsgMicros {
		t.Fatalf("gain = %d", g)
	}
}
