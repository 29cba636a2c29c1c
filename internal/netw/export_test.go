package netw

import "demosmp/internal/addr"

// Partitioned reports whether the pair is currently severed.
func (n *Network) Partitioned(a, b addr.MachineID) bool {
	_, cut := n.parts[normPair(a, b)]
	return cut
}
