package chaos

import (
	"fmt"
	"sort"

	"demosmp/internal/kernel"
)

// KillCounts reports crashes per kill-point.
func (inj *Injector) KillCounts() map[kernel.KillPoint]int {
	out := make(map[kernel.KillPoint]int)
	for _, counts := range inj.counts {
		for k, v := range counts {
			out[k] += v
		}
	}
	return out
}

// Trace returns the injector's fault log — a deterministic artifact two
// same-seed runs must reproduce byte for byte, across shard counts too. It
// merges the per-shard logs into the canonical order (time, machine): each
// (t, m) pair is written by exactly one shard, and same-key entries keep
// their shard's emission order, so the merge is total.
func (inj *Injector) Trace() []string {
	var all []chaosEntry
	for _, l := range inj.logs {
		all = append(all, l...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].t != all[j].t {
			return all[i].t < all[j].t
		}
		return all[i].m < all[j].m
	})
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = fmt.Sprintf("t=%d %s", e.t, e.s)
	}
	return out
}
