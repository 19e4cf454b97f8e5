// Package tcptest boots the in-process loopback cluster the TCP tests run
// on: executor block servers on ephemeral ports and a transport over them.
package tcptest

import (
	"io"
	"net"
	"testing"
)

// Start listens on n loopback ports, serves executor i on the i-th (serve is
// tcp.Serve) and returns the servers with a transport over their addresses
// (dial is tcp.New); the test's cleanup closes the transport, then the
// servers. The two constructors are parameters so that package tcp's own
// tests can start a cluster too: this package cannot import the package they
// are part of.
func Start[S, T io.Closer](tb testing.TB, n int, serve func(ln net.Listener) S, dial func(peers map[int]string) T) ([]S, T) {
	tb.Helper()
	srvs := make([]S, n)
	peers := make(map[int]string, n)
	for i := range srvs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		srv := serve(ln)
		tb.Cleanup(func() { srv.Close() })
		srvs[i], peers[i] = srv, ln.Addr().String()
	}
	tr := dial(peers)
	tb.Cleanup(func() { tr.Close() })
	return srvs, tr
}
