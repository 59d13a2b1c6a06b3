//go:build race

package metrics

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops a random quarter of its Puts, so recycled networks, with the
// worms they carry, are rebuilt on a warm path and the allocation pins
// cannot hold there.
const raceEnabled = true
