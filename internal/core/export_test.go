package core

import (
	"demosmp/internal/addr"
	"demosmp/internal/dvm"
	"demosmp/internal/kernel"
	"demosmp/internal/link"
	"demosmp/internal/sim"
)

// SpawnVM assembles and spawns a DVM program on machine m.
func (c *Cluster) SpawnVM(m int, src string, links ...link.Link) (addr.ProcessID, error) {
	p, err := dvm.Assemble(src)
	if err != nil {
		return addr.NilPID, err
	}
	return c.Spawn(m, kernel.SpawnSpec{Program: p, Links: links})
}

// Lookahead returns the conservative lookahead window W in microseconds.
func (c *Cluster) Lookahead() sim.Time { return c.group.Lookahead }

// LossBurst raises the loss probability on every shard until the given sim
// time (sends originate on all shards).
func (c *Cluster) LossBurst(rate float64, until sim.Time) {
	for _, nw := range c.nets {
		nw.LossBurst(rate, until)
	}
}

// DuplicateNext injects duplicates for the next count frames from->to; the
// injection lives on the sending machine's shard.
func (c *Cluster) DuplicateNext(from, to addr.MachineID, count int) {
	c.nets[c.shardOf[from]].DuplicateNext(from, to, count)
}

// DelayNext adds extra transit to the next frame from->to (sender's shard).
func (c *Cluster) DelayNext(from, to addr.MachineID, extra sim.Time) {
	c.nets[c.shardOf[from]].DelayNext(from, to, extra)
}
