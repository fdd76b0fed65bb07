// Package lib is the reach rule's fixture: one function per way of being
// reached, or of not being. reach_test.go asserts each verdict.
package lib

import "errors"

// Shape is the interface app converts a Square to.
type Shape interface{ Area() int }

// Square is converted to a Shape and never has Area called on it directly.
type Square struct{ Side int }

// Area is reached only through the conversion to Shape.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter is reached only as a method value.
func (s Square) Perimeter() int { return 4 * s.Side }

// Scaled shares Shape's method name and not its signature.
type Scaled struct{}

// Area is unreached: Scaled does not implement Shape.
func (Scaled) Area(scale int) int { return scale }

// Sink implements io.Writer, an interface only app's imports name.
type Sink struct{}

// Write is reached through fmt.Fprintln's io.Writer.
func (Sink) Write(p []byte) (int, error) { return len(p), nil }

// Wrapped implements the interface errors.Unwrap asserts to in place.
type Wrapped struct{ Err error }

func (w Wrapped) Error() string { return "wrapped: " + w.Err.Error() }

// Unwrap is reached through an interface no package names.
func (w Wrapped) Unwrap() error { return w.Err }

// ErrBase is what app wraps.
var ErrBase = errors.New("base")

// hook holds fromVar as a function value.
var hook = fromVar

// fromVar is reached only from a package-level initialiser.
func fromVar() int { return 1 }

// RunHook is how app reaches hook.
func RunHook() int { return hook() }

// OnlyTested is unreached: only lib_test.go calls it.
func OnlyTested() int { return underOnlyTested() }

// underOnlyTested is unreached at the fixed point: its one caller is.
func underOnlyTested() int { return 2 }

// Orphan is unreached: nothing names it.
func Orphan() {}

// Observed is kept: lib_test.go reads state through it.
func Observed() int { return underObserved() }

// underObserved stays with the kept function that calls it.
func underObserved() int { return 3 }

// Promoted is on the keep list and app calls it: a stale entry.
func Promoted() int { return 4 }

// Untested is on the keep list and its test file does not name it: a stale
// entry.
func Untested() int { return 5 }
