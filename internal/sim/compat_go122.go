//go:build !go1.23

package sim

// kernel.go switches procs with iter.Pull, so only a go1.23 or newer
// toolchain builds it. On an older one this file is built instead, and
// its undefined name is the first error the build reports.
type _ sim_kernel_requires_go1_23
