//go:build !race

package planserve

const raceEnabled = false
