package msg

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"demosmp/internal/addr"
	"demosmp/internal/link"
)

func pid(c, l uint16) addr.ProcessID {
	return addr.ProcessID{Creator: addr.MachineID(c), Local: addr.LocalUID(l)}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Kind: KindUser,
		From: addr.At(pid(1, 2), 1),
		To:   addr.At(pid(2, 3), 4),
		DTK:  true,
		Body: []byte("hello demos"),
		Links: []link.Link{
			{Addr: addr.At(pid(1, 2), 1), Attrs: link.AttrReply},
			{Addr: addr.At(pid(9, 9), 9), Attrs: link.AttrDataWrite, Area: link.DataArea{Offset: 4, Length: 128}},
		},
	}
	b := Encode(nil, m)
	if len(b) != m.WireSize() {
		t.Fatalf("encoded %d bytes, WireSize says %d", len(b), m.WireSize())
	}
	got, rest, err := Decode(b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest=%d", err, len(rest))
	}
	if got.Kind != m.Kind || got.DTK != m.DTK || got.From != m.From || got.To != m.To {
		t.Fatalf("header mismatch: %v vs %v", got, m)
	}
	if !bytes.Equal(got.Body, m.Body) || !reflect.DeepEqual(got.Links, m.Links) {
		t.Fatalf("payload mismatch")
	}
}

func TestDataPacketRoundTrip(t *testing.T) {
	m := &Message{
		Kind: KindData,
		From: addr.KernelAddr(1),
		To:   addr.KernelAddr(2),
		Xfer: 77,
		Seq:  123456,
		Last: true,
		Body: bytes.Repeat([]byte{0xAB}, 512),
	}
	b := Encode(nil, m)
	got, _, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Xfer != 77 || got.Seq != 123456 || !got.Last || len(got.Body) != 512 {
		t.Fatalf("stream fields lost: %+v", got)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(kind uint8, op uint8, body []byte, nlinks uint8, dtk bool, xfer uint16, seq uint32) bool {
		k := Kind(kind%5) + KindUser
		if len(body) > 1000 {
			body = body[:1000]
		}
		m := &Message{
			Kind: k, Op: Op(op % 20), DTK: dtk,
			From: addr.At(pid(1, 5), 1), To: addr.At(pid(2, 6), 3),
			Body: body, Xfer: xfer, Seq: seq,
		}
		for i := 0; i < int(nlinks%4); i++ {
			m.Links = append(m.Links, link.Link{Addr: addr.At(pid(3, uint16(i+1)), 3)})
		}
		b := Encode(nil, m)
		got, rest, err := Decode(b)
		if err != nil || len(rest) != 0 {
			return false
		}
		if got.Kind != m.Kind || got.Op != m.Op || got.DTK != m.DTK {
			return false
		}
		if !bytes.Equal(got.Body, m.Body) || len(got.Links) != len(m.Links) {
			return false
		}
		if k == KindData || k == KindAck {
			if got.Xfer != m.Xfer || got.Seq != m.Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := &Message{Kind: KindUser, From: addr.At(pid(1, 1), 1), To: addr.At(pid(2, 2), 2), Body: []byte("abcdef")}
	b := Encode(nil, m)
	for i := 0; i < len(b); i++ {
		if _, _, err := Decode(b[:i]); err == nil {
			t.Fatalf("accepted %d-byte truncation", i)
		}
	}
}

func TestClone(t *testing.T) {
	m := &Message{Kind: KindUser, Body: []byte{1, 2}, Links: []link.Link{{Addr: addr.At(pid(1, 1), 1)}}}
	c := m.Clone()
	c.Body[0] = 9
	c.Links[0].Addr.LastKnown = 9
	if m.Body[0] != 1 || m.Links[0].Addr.LastKnown != 1 {
		t.Fatal("Clone is shallow")
	}
}

// The paper: administrative messages are "in the 6-12 byte range".
func TestAdminPayloadSizes(t *testing.T) {
	payloads := map[string][]byte{
		"MigrateRequest":     MigrateRequest{PID: pid(1, 2), Dest: 3}.Encode(),
		"MigrateAsk":         MigrateAsk{PID: pid(1, 2), Program: 100, Resident: 4, Swappable: 10}.Encode(),
		"MigrateAccept":      PIDMachine{PID: pid(1, 2), Machine: 3}.Encode(),
		"MigrateEstablished": PIDMachine{PID: pid(1, 2), Machine: 3}.Encode(),
		"MoveDataReq":        MoveDataReq{PID: pid(1, 2), Region: RegionProgram, Xfer: 7}.Encode(),
		"MigrateCleanup":     MigrateCleanup{PID: pid(1, 2), Forwarded: 5}.Encode(),
		"MigrateDone":        MigrateDone{PID: pid(1, 2), Machine: 3, OK: true}.Encode(),
	}
	for name, b := range payloads {
		if len(b) < 6 || len(b) > 12 {
			t.Errorf("%s payload = %d bytes, want 6-12 (paper §6)", name, len(b))
		}
	}
}

func TestControlRoundTrips(t *testing.T) {
	{
		in := MigrateRequest{PID: pid(4, 5), Dest: 6}
		out, err := DecodeMigrateRequest(in.Encode())
		if err != nil || out != in {
			t.Fatalf("MigrateRequest: %v %v", out, err)
		}
	}
	{
		in := MigrateAsk{PID: pid(4, 5), Program: 1000, Resident: 4, Swappable: 10}
		out, err := DecodeMigrateAsk(in.Encode())
		if err != nil || out != in {
			t.Fatalf("MigrateAsk: %v %v", out, err)
		}
	}
	{
		in := PIDMachine{PID: pid(4, 5), Machine: 2}
		out, err := DecodePIDMachine(in.Encode())
		if err != nil || out != in {
			t.Fatalf("PIDMachine: %v %v", out, err)
		}
	}
	{
		in := MoveDataReq{PID: pid(4, 5), Region: RegionSwappable, Xfer: 300}
		out, err := DecodeMoveDataReq(in.Encode())
		if err != nil || out != in {
			t.Fatalf("MoveDataReq: %v %v", out, err)
		}
	}
	{
		in := MigrateCleanup{PID: pid(4, 5), Forwarded: 17}
		out, err := DecodeMigrateCleanup(in.Encode())
		if err != nil || out != in {
			t.Fatalf("MigrateCleanup: %v %v", out, err)
		}
	}
	{
		in := MigrateDone{PID: pid(4, 5), Machine: 2, OK: true}
		out, err := DecodeMigrateDone(in.Encode())
		if err != nil || out != in {
			t.Fatalf("MigrateDone: %v %v", out, err)
		}
	}
	{
		in := LinkUpdate{Sender: pid(1, 2), Migrated: pid(3, 4), Machine: 5}
		out, err := DecodeLinkUpdate(in.Encode())
		if err != nil || out != in {
			t.Fatalf("LinkUpdate: %v %v", out, err)
		}
		if len(in.Encode()) != 10 {
			t.Fatalf("LinkUpdate size = %d, want 10", len(in.Encode()))
		}
	}
	{
		in := MoveRead{PID: pid(1, 2), AreaOff: 64, Off: 100, Len: 2048, Xfer: 9}
		out, err := DecodeMoveRead(in.Encode())
		if err != nil || out != in {
			t.Fatalf("MoveRead: %v %v", out, err)
		}
	}
	{
		in := XferStatus{Xfer: 9, OK: true}
		out, err := DecodeXferStatus(in.Encode())
		if err != nil || out != in {
			t.Fatalf("XferStatus: %v %v", out, err)
		}
	}
}

func TestControlDecodeErrors(t *testing.T) {
	short := []byte{1, 2, 3}
	if _, err := DecodeMigrateRequest(short); err == nil {
		t.Error("MigrateRequest accepted short input")
	}
	if _, err := DecodeMigrateAsk(short); err == nil {
		t.Error("MigrateAsk accepted short input")
	}
	if _, err := DecodePIDMachine(short); err == nil {
		t.Error("PIDMachine accepted short input")
	}
	if _, err := DecodeMoveDataReq(short); err == nil {
		t.Error("MoveDataReq accepted short input")
	}
	if _, err := DecodeLinkUpdate(short); err == nil {
		t.Error("LinkUpdate accepted short input")
	}
	if _, err := DecodeXferStatus([]byte{1}); err == nil {
		t.Error("XferStatus accepted short input")
	}
}

func TestToUnits(t *testing.T) {
	cases := []struct {
		in   int
		want uint16
	}{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {640, 10}, {10 << 20, 0xFFFF}}
	for _, c := range cases {
		if got := ToUnits(c.in); got != c.want {
			t.Errorf("ToUnits(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestKindAndOpStrings(t *testing.T) {
	if KindUser.String() != "user" || KindLinkUpdate.String() != "linkupdate" {
		t.Fatal("Kind.String broken")
	}
	if OpMigrateAsk.String() != "migrate-ask" {
		t.Fatal("Op.String broken")
	}
	if Kind(99).String() == "" || Op(99).String() == "" {
		t.Fatal("unknown values must stringify")
	}
}
