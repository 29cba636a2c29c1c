// Package user is the sibling that uses package dead from non-test code.
package user

import "deadfix/internal/dead"

type shape interface{ Area() int }

func total() int {
	var s shape = dead.Square{Side: 2}
	return s.Area() + dead.UsedBySibling()
}
