//go:build !race

package metrics

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
