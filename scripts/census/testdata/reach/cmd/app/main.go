// Command app is the fixture's one binary.
package main

import (
	"errors"
	"fmt"

	"fixture/lib"
)

func main() {
	sq := lib.Square{Side: 2}
	var sh lib.Shape = sq
	perimeter := sq.Perimeter
	err := lib.Wrapped{Err: lib.ErrBase}
	fmt.Fprintln(lib.Sink{}, sh.Area(), perimeter(), lib.RunHook(), lib.Promoted(), errors.Unwrap(err))
}
