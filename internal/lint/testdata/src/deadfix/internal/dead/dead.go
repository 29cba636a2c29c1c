// Package dead is a deadcode fixture: exported surface with and without a
// use outside tests.
package dead

// Dead has no caller at all.
func Dead() {} // want deadcode

// TestOnly is called only from this package's own test.
func TestOnly() int { return 1 } // want deadcode

// UsedBySibling is called from a sibling package's non-test file: silent.
func UsedBySibling() int { return 2 }

// Kept is listed in the rule's Keep table: silent.
func Kept() int { return 5 }

// UsedByConsumer is referenced only from _consumer, a directory the loader
// skips, as it skips bench/_src: silent.
func UsedByConsumer() int { return 3 }

// Square is built by package user, which measures it through an interface:
// Area implements it (silent), Perimeter is an exported method nobody calls.
type Square struct{ Side int }

func (s Square) Area() int      { return s.Side * s.Side }
func (s Square) Perimeter() int { return 4 * s.Side } // want deadcode

// Orphan is named only by its own method's receiver, which is no use.
type Orphan struct{} // want deadcode

func (Orphan) Kind() string { return "orphan" } // want deadcode
