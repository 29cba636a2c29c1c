// Package hotfix is a hotpathalloc fixture: each allocation class the rule
// rejects inside an annotated function, the idioms it must accept, and an
// unannotated twin proving the rule only fires under //demos:hotpath.
package hotfix

import (
	"fmt"
	"strconv"
)

func take(v any)    { _ = v }
func run(fn func()) { fn() }

//demos:hotpath fixture: fmt call
func BadFmt(n int) string {
	return fmt.Sprintf("n=%d", n) // want hotpathalloc: fmt allocates
}

//demos:hotpath fixture: capturing closure
func BadClosure(n int) {
	run(func() { n++ }) // want hotpathalloc: closure captures n
}

//demos:hotpath fixture: explicit interface conversion
func BadConvert(n int) any {
	return any(n) // want hotpathalloc: conversion boxes
}

//demos:hotpath fixture: implicit boxing at a call site
func BadBox(n int) {
	take(n) // want hotpathalloc: concrete to interface parameter
}

//demos:hotpath fixture: append to a visibly fresh slice
func BadFreshAppend(n byte) []byte {
	return append([]byte{}, n) // want hotpathalloc: fresh slice
}

//demos:hotpath fixture: append result assigned to a different slice
func BadCrossAppend(src []byte) []byte {
	var out []byte
	out = append(src, 1) // want hotpathalloc: copies into a new backing array
	return out
}

//demos:hotpath fixture: the amortized buffer idioms must pass
func OKSelfAppend(buf []byte, n uint64) []byte {
	buf = append(buf, 'x')
	buf = strconv.AppendUint(buf, n, 10)
	return append(buf, '!')
}

//demos:hotpath fixture: non-capturing literals and builtins are fine
func OKBuiltins(b []byte) int {
	run(func() {})
	if len(b) == 0 {
		panic("empty")
	}
	return cap(b)
}

// UnannotatedTwin does everything the Bad functions do, without the
// directive: no findings (the rule costs nothing outside hot paths).
func UnannotatedTwin(n int) string {
	take(n)
	run(func() { n++ })
	_ = append([]byte{}, byte(n))
	return fmt.Sprint(n)
}

//demos:hotpath fixture: pointer-shaped values become interfaces without boxing
func OKPointerShaped(p *int, m map[int]int, fn func()) any {
	take(p)
	take(m)
	take(fn)
	return any(p)
}
