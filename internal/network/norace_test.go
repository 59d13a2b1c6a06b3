//go:build !race

package network

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
