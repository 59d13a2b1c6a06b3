//go:build race

package network

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops a random quarter of its Puts, so pooled worms are rebuilt on
// a warm path and the zero-allocation pins cannot hold there.
const raceEnabled = true
