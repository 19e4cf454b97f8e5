package tcp

import (
	"fmt"
	"net"
	"time"

	"skyway/internal/registry"
)

// Executor is one running block-server process half: the listener, its
// Server, and the registry connection that advertised it.
type Executor struct {
	srv *Server
	reg *registry.TCPClient
}

// Addr returns the address the executor's block server is listening on.
func (e *Executor) Addr() string { return e.srv.Addr().String() }

// Close stops the block server and releases the registry connection.
func (e *Executor) Close() error {
	err := e.srv.Close()
	if e.reg != nil {
		e.reg.Close()
	}
	return err
}

// StartExecutor brings up executor id as a block server: listen on
// listenAddr (":0" picks a port), start serving, dial the registry at
// registryAddr, and ANNOUNCE the bound address under id so the driver's
// transport can discover it with PEERS. This is the body of `skywayd
// -executor`, shared with the multi-process tests' re-exec trampoline.
//
// registryAddr may be empty for an unannounced server (the conformance
// suite's standalone mode).
func StartExecutor(id int, registryAddr, listenAddr string) (*Executor, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("executor %d: listen %s: %w", id, listenAddr, err)
	}
	e := &Executor{srv: Serve(ln)}
	if registryAddr != "" {
		cli, err := registry.Dial(registryAddr)
		if err != nil {
			e.srv.Close()
			return nil, fmt.Errorf("executor %d: registry %s: %w", id, registryAddr, err)
		}
		if err := cli.Announce(int32(id), ln.Addr().String()); err != nil {
			cli.Close()
			e.srv.Close()
			return nil, fmt.Errorf("executor %d: announce: %w", id, err)
		}
		e.reg = cli
	}
	return e, nil
}

// DiscoverTransport polls the registry through pc until want executors have
// announced (or tries runs out, one registry exchange apart), then returns a
// Transport over the advertised peers. The poll exists because executor
// processes race the driver's startup — PEERS is cheap and the registry
// client already carries the backoff discipline.
func DiscoverTransport(pc registry.PeerClient, want, tries int) (*Transport, error) {
	var peers map[int32]string
	for i := 0; i < tries; i++ {
		m, err := pc.Peers()
		if err != nil {
			return nil, err
		}
		if len(m) >= want {
			peers = m
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if peers == nil {
		return nil, fmt.Errorf("transport: %d executors never announced", want)
	}
	out := make(map[int]string, len(peers))
	for id, addr := range peers {
		out[int(id)] = addr
	}
	return New(out), nil
}
