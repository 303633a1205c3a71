package core

import "time"

// Budget caps the wall time one planning pass may take. The zero value
// imposes no limit. A budget never causes planning to fail: expiry returns
// the identity plan marked Degraded, with the reason recorded in the result.
type Budget struct {
	// MaxWallClock bounds the planning wall time. When it expires the
	// pipeline abandons in-flight work cooperatively and returns an identity
	// plan marked Degraded, rather than an error: the caller's own context
	// still distinguishes genuine cancellation.
	MaxWallClock time.Duration
}
