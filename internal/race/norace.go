//go:build !race

package race

// Enabled is true when the race detector is on.
const Enabled = false
