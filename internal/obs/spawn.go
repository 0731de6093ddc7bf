package obs

import (
	"fmt"

	"fcma/internal/obs/trace"
)

// spawn starts fn on its own goroutine with panic containment: a panic
// is noted in the flight recorder instead of crashing the process. The
// obs package cannot use safe.Go for this (internal/safe imports obs, so
// the dependency would be circular), so this helper is obs's one
// sanctioned raw spawn point; everything else in the package goes
// through it.
func spawn(stage string, fn func()) {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				trace.DefaultFlight().Note("panic", fmt.Sprintf("%s: %v", stage, r))
			}
		}()
		fn()
	}()
}
