//go:build !linux && !darwin

package arena

// Fallback for platforms without anonymous mmap and mprotect in package
// syscall: plain Go allocations. The lifecycle (and the use-after-retire
// discipline) is identical; only the "outside the runtime heap" property is
// approximated, and a view into a pooled mapping reads stale bytes instead
// of faulting.
func mmapAnon(n int) ([]byte, error) { return make([]byte, n), nil }

func munmap(b []byte) {}

func protect(b []byte, access bool) error { return nil }
