// Package simrandfix uses math/rand inside the package that owns the
// named RNG streams. Linted under the virtual import path
// fsoi/internal/sim: rngstream has no exemption there, and each use is
// exactly one finding (detsource leaves math/rand to rngstream).
package simrandfix

import "math/rand" // want "rngstream: import of math/rand"

func draw() int {
	return rand.Intn(4) // want "rngstream: use of math/rand.Intn"
}
