package fault_test

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/network"
)

// TestMain fails the suite if any study released a network that Reset
// refused: every study and run here drains its network, so each must pass the
// drained-state audit and return to the pool.
func TestMain(m *testing.M) {
	before := network.ReleaseRefusals()
	code := m.Run()
	if got := network.ReleaseRefusals(); got != before {
		fmt.Fprintf(os.Stderr, "network.Release refused %d drained networks\n", got-before)
		code = 1
	}
	os.Exit(code)
}
