// Package race reports whether the binary was built with the race
// detector. The detector allocates on synchronizing operations, so tests
// that pin allocation counts skip themselves when Enabled is true.
package race
