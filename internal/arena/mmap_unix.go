//go:build linux || darwin

package arena

import "syscall"

// mmapAnon maps n bytes of anonymous private memory — genuinely outside the
// Go heap, so the runtime GC never scans it and RSS is returned to the OS at
// munmap, mirroring how a real off-heap arena behaves under a JVM.
func mmapAnon(n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func munmap(b []byte) {
	if len(b) == 0 {
		return
	}
	// Unmapping can only fail on a corrupted mapping; the region is being
	// retired either way, so there is nothing useful to do with the error.
	_ = syscall.Munmap(b)
}

// protect makes a mapping readable and writable, or inaccessible while it
// waits in the pool, so a stale view into it faults.
func protect(b []byte, access bool) error {
	prot := syscall.PROT_NONE
	if access {
		prot = syscall.PROT_READ | syscall.PROT_WRITE
	}
	return syscall.Mprotect(b, prot)
}
