// Package scaffold mimics proctest and simtest: test helpers by design.
package scaffold

// Helper has no non-test caller, and that is its job: silent.
func Helper() int { return 4 }
