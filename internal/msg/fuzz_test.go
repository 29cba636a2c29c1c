package msg

import (
	"reflect"
	"testing"

	"demosmp/internal/addr"
	"demosmp/internal/link"
)

// FuzzDecode: the message decoder must reject or accept arbitrary bytes
// without ever panicking — kernels parse frames from other kernels.
func FuzzDecode(f *testing.F) {
	good := Encode(nil, &Message{
		Kind: KindUser,
		From: addr.At(addr.ProcessID{Creator: 1, Local: 2}, 1),
		To:   addr.At(addr.ProcessID{Creator: 2, Local: 3}, 2),
		Body: []byte("hello"),
		Links: []link.Link{
			{Addr: addr.At(addr.ProcessID{Creator: 1, Local: 2}, 1), Attrs: link.AttrReply},
		},
	})
	f.Add(good)
	f.Add(good[:7])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	data := Encode(nil, &Message{Kind: KindData, From: addr.KernelAddr(1),
		To: addr.KernelAddr(2), Xfer: 7, Seq: 99, Last: true, Body: []byte{1, 2, 3}})
	f.Add(data)
	f.Fuzz(func(t *testing.T, b []byte) {
		m, rest, err := Decode(b)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode to the bytes consumed.
		re := Encode(nil, m)
		consumed := b[:len(b)-len(rest)]
		if len(re) != len(consumed) {
			t.Fatalf("re-encode length %d, consumed %d", len(re), len(consumed))
		}
	})
}

// FuzzControlDecoders: every control payload decoder on arbitrary input.
// The corpus seeds one well-formed encoding of every payload type (demoslint's
// wirepair rule enforces that this list stays complete as payloads are added).
func FuzzControlDecoders(f *testing.F) {
	f.Add([]byte{})
	f.Add(MigrateRequest{PID: addr.ProcessID{Creator: 1, Local: 2}, Dest: 3}.Encode())
	f.Add(MigrateAsk{PID: addr.ProcessID{Creator: 1, Local: 2}, Program: 9}.Encode())
	f.Add(PIDMachine{PID: addr.ProcessID{Creator: 3, Local: 4}, Machine: 5}.Encode())
	f.Add(MoveDataReq{PID: addr.ProcessID{Creator: 1, Local: 2}, Region: RegionProgram, Xfer: 11}.Encode())
	f.Add(MigrateCleanup{PID: addr.ProcessID{Creator: 1, Local: 2}, Forwarded: 4}.Encode())
	f.Add(MigrateDone{PID: addr.ProcessID{Creator: 1, Local: 2}, Machine: 3, OK: true}.Encode())
	f.Add(LinkUpdate{Sender: addr.ProcessID{Creator: 1, Local: 2}, Migrated: addr.ProcessID{Creator: 3, Local: 4}, Machine: 5}.Encode())
	f.Add(MoveRead{PID: addr.ProcessID{Creator: 1, Local: 2}, AreaOff: 4096, Off: 128, Len: 256, Xfer: 7}.Encode())
	f.Add(XferStatus{Xfer: 9, OK: true}.Encode())
	f.Add(LoadReport{Machine: 2, Procs: []ProcLoad{{PID: addr.ProcessID{Creator: 1, Local: 1}, MemKB: 32}}}.Encode())
	f.Add(CreateProcess{Tag: 1, Name: "x", Args: []string{"y"}}.Encode())
	f.Add(CreateDone{PID: addr.ProcessID{Creator: 1, Local: 2}, Machine: 3, Tag: 4}.Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		DecodeMigrateRequest(b)
		DecodeMigrateAsk(b)
		DecodePIDMachine(b)
		DecodeMoveDataReq(b)
		DecodeMigrateCleanup(b)
		DecodeMigrateDone(b)
		DecodeLinkUpdate(b)
		DecodeMoveRead(b)
		DecodeXferStatus(b)
		DecodeCreateProcess(b)
		DecodeCreateDone(b)
		DecodeLoadReport(b)
	})
}

// TestControlRoundTripAll drives every control payload through its
// AppendTo/Decode pair and checks the decode reproduces the input and
// consumes exactly the bytes AppendTo produced. Together with the wirepair
// lint rule this keeps encoder, decoder, and corpus in lockstep for every
// payload the migration protocol carries.
func TestControlRoundTripAll(t *testing.T) {
	pid := addr.ProcessID{Creator: 7, Local: 42}
	pid2 := addr.ProcessID{Creator: 9, Local: 1}
	cases := []struct {
		name   string
		in     interface{ AppendTo([]byte) []byte }
		decode func([]byte) (any, error)
	}{
		{"MigrateRequest", MigrateRequest{PID: pid, Dest: 3},
			func(b []byte) (any, error) { return DecodeMigrateRequest(b) }},
		{"MigrateAsk", MigrateAsk{PID: pid, Program: 5, Resident: 250, Swappable: 600},
			func(b []byte) (any, error) { return DecodeMigrateAsk(b) }},
		{"PIDMachine", PIDMachine{PID: pid, Machine: 4},
			func(b []byte) (any, error) { return DecodePIDMachine(b) }},
		{"MoveDataReq", MoveDataReq{PID: pid, Region: RegionSwappable, Xfer: 17},
			func(b []byte) (any, error) { return DecodeMoveDataReq(b) }},
		{"MigrateCleanup", MigrateCleanup{PID: pid, Forwarded: 6},
			func(b []byte) (any, error) { return DecodeMigrateCleanup(b) }},
		{"MigrateDone", MigrateDone{PID: pid, Machine: 2, OK: true},
			func(b []byte) (any, error) { return DecodeMigrateDone(b) }},
		{"LinkUpdate", LinkUpdate{Sender: pid, Migrated: pid2, Machine: 8},
			func(b []byte) (any, error) { return DecodeLinkUpdate(b) }},
		{"MoveRead", MoveRead{PID: pid, AreaOff: 4096, Off: 64, Len: 512, Xfer: 3},
			func(b []byte) (any, error) { return DecodeMoveRead(b) }},
		{"XferStatus", XferStatus{Xfer: 12, OK: false},
			func(b []byte) (any, error) { return DecodeXferStatus(b) }},
		{"CreateProcess", CreateProcess{Tag: 2, Name: "wk", Args: []string{"a", "b"}},
			func(b []byte) (any, error) { return DecodeCreateProcess(b) }},
		{"CreateDone", CreateDone{PID: pid, Machine: 1, Tag: 2},
			func(b []byte) (any, error) { return DecodeCreateDone(b) }},
		{"LoadReport", LoadReport{Machine: 3, Procs: []ProcLoad{{PID: pid, CPUMicros: 10, MemKB: 48, MsgsOut: 3, TopPeer: 2, TopPeerMsgs: 1}}},
			func(b []byte) (any, error) { return DecodeLoadReport(b) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// AppendTo must append after existing bytes, untouched.
			prefix := []byte{0xAA, 0xBB}
			wire := tc.in.AppendTo(append([]byte(nil), prefix...))
			if len(wire) < len(prefix) || wire[0] != 0xAA || wire[1] != 0xBB {
				t.Fatalf("AppendTo clobbered the existing buffer: % x", wire)
			}
			out, err := tc.decode(wire[len(prefix):])
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(out, any(tc.in)) {
				t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", tc.in, out)
			}
		})
	}
}
