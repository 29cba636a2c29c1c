// Package supfix exercises inventory: //demos:hotpath annotations
// with a live guard (silent), a deleted guard (reported), and no guard at
// all (reported).
package supfix

// LiveGuard cites a benchmark that exists in supfix_test.go.
//
//demos:hotpath — fixture; dynamic guard: BenchmarkGoodPath.
func LiveGuard(buf []byte) []byte {
	return buf[:0]
}

// DeletedGuard cites a benchmark nobody defines any more.
//
//demos:hotpath — fixture; dynamic guard: BenchmarkGonePath.
func DeletedGuard(buf []byte) []byte {
	return buf[:0]
}

// NoGuard names nothing measurable at all.
//
//demos:hotpath — fixture; very fast, trust me.
func NoGuard(buf []byte) []byte {
	return buf[:0]
}
