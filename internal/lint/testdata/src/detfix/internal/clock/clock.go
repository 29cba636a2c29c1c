// Package clock is a determinism fixture: every ambient-input primitive
// the rule forbids, plus the allowed forms.
package clock

import (
	"math/rand"
	"os"
	"time"
)

// Bad: every call here is an ambient input the simulator must not read.
func Bad() {
	_ = time.Now()                  // want determinism: wall clock
	time.Sleep(time.Second)         // want determinism: real sleep
	_ = time.Since(time.Time{})     // want determinism: wall clock
	_ = rand.Intn(10)               // want determinism: global PRNG
	_ = rand.New(rand.NewSource(1)) // want determinism: private source (x2)
	_, _ = os.LookupEnv("HOME")     // want determinism: environment
	_ = os.Getenv("SEED")           // want determinism: environment
}

// OK: values threaded in explicitly, method calls on an injected *rand.Rand,
// and time.Duration arithmetic (a constant, not an ambient read).
func OK(now int64, rng *rand.Rand) int {
	_ = time.Duration(now) * time.Millisecond
	return rng.Intn(10)
}

// Identity: the process identity is an ambient input too.
func Identity() int {
	return os.Getpid() // want determinism: process identity
}
