// Package simtest holds what the tests of the sharded runtime share.
package simtest

import (
	"runtime"
	"testing"
)

// TwoProcs makes sure sim.Group's adaptive rule sees a host that can run
// two goroutines at once, whatever the machine the test runs on, so that a
// Parallel arm's dense rounds do run on goroutines. The test's cleanup
// restores the setting.
func TwoProcs(t testing.TB) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}
