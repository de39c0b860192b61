// Package detfix seeds deliberate determinism violations for the
// detsource analyzer. The test harness lints it under the virtual
// import path fsoi/internal/core, so simulation-package rules apply.
package detfix

import (
	"math/rand" // want "rngstream: import of math/rand"
	"os"
	"time"
)

func violations() {
	_ = time.Now()              // want "detsource: use of time.Now"
	_ = time.Since(time.Time{}) // want "detsource: use of time.Since"
	_ = os.Getenv("FSOI_SEED")  // want "detsource: use of os.Getenv"
	_ = rand.Intn(4)            // want "rngstream: use of math/rand.Intn"
	go violations()             // want "detsource: goroutine launched"
	ch := make(chan int)
	select { // want "detsource: select statement"
	case <-ch:
	default:
	}
}
