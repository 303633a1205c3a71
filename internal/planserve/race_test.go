//go:build race

package planserve

// raceEnabled reports a -race build, whose sync.Pool drops a share of the
// buffers put back at random.
const raceEnabled = true
