package kernel

import "demosmp/internal/msg"

// ProtocolRow is one row of the protocol table as the external tests (and,
// through TestProtocolTableDoc, docs/PROTOCOLS.md) see it.
type ProtocolRow struct {
	Op     msg.Op
	Num    string
	Dir    string
	Bytes  int
	Role   string // the receiving half: "source", "destination", "either", or "—" for none
	Orphan string // what a kernel holding no such half does; "ignored" if the row has no rule
	Steps  string
	Kills  []KillPoint
}

// ProtocolTable returns the protocol table, in op order.
func ProtocolTable() []ProtocolRow {
	roles := map[migRole]string{0: "—", roleSource: "source", roleDest: "destination", roleEither: "either"}
	out := make([]ProtocolRow, len(protocol))
	for i, r := range protocol {
		out[i] = ProtocolRow{Op: r.op, Num: r.num, Dir: r.dir, Bytes: r.bytes,
			Role: roles[r.role], Orphan: r.orphanDoc, Steps: r.steps, Kills: r.kills}
		switch {
		case r.role == 0:
			out[i].Orphan = "—"
		case r.orphan == nil:
			out[i].Orphan = "ignored"
		}
	}
	return out
}

// IsMigrationOp reports whether kernelControl hands op to the migration
// dispatcher.
func IsMigrationOp(op msg.Op) bool { return protocolRow(op) != nil }
