// Package registry implements Skyway's automated global class numbering
// (§4.1, Algorithm 1). A driver maintains the cluster-wide map from type
// strings to integer type IDs; each worker runtime holds a registry view —
// a locally cached subset — populated in bulk at startup (REQUEST_VIEW) and
// extended lazily on class load (LOOKUP). The receive path additionally
// resolves IDs back to names (REVERSE) so an unloaded class can be loaded by
// name, which is why Skyway cannot substitute a hash of the class name for
// the registry (§4.1).
package registry

import (
	"fmt"
	"sync"

	"skyway/internal/obs"
)

// Registry counters, exported on /metrics (skywayd's primary gauges).
var (
	ctrRegistrations  = obs.NewCounter("skyway_registry_registrations_total", "Fresh type IDs assigned by driver registries.")
	ctrLookups        = obs.NewCounter("skyway_registry_lookups_total", "LOOKUP requests served (hit or assign).")
	ctrRemoteLookups  = obs.NewCounter("skyway_registry_view_misses_total", "Worker-view misses that issued a remote LOOKUP.")
	ctrRemoteReverses = obs.NewCounter("skyway_registry_view_reverses_total", "Worker-view misses that issued a remote REVERSE.")
)

// Registry is the driver-side complete type registry. Alongside the type
// numbering it carries the cluster's peer advertisements: executor block
// servers announce their shuffle listen addresses here, and the driver's
// transport discovers them with Peers — the registry doubles as the
// cluster's one piece of coordination state, so a TCP cluster needs no
// second discovery service.
type Registry struct {
	mu    sync.RWMutex
	ids   map[string]int32
	names []string // index = ID
	peers map[int32]string
}

// NewRegistry returns an empty driver registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[string]int32), peers: make(map[int32]string)}
}

// Populate registers the driver JVM's own loaded classes at startup
// (Algorithm 1, driver part 1).
func (r *Registry) Populate(names []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		r.lookupOrAssignLocked(n)
	}
}

// LookupOrAssign returns the global ID for name, assigning a fresh one if
// the name has never been seen (Algorithm 1, driver part 2, "LOOKUP").
func (r *Registry) LookupOrAssign(name string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookupOrAssignLocked(name)
}

func (r *Registry) lookupOrAssignLocked(name string) int32 {
	ctrLookups.Inc()
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := int32(len(r.names))
	r.ids[name] = id
	r.names = append(r.names, name)
	ctrRegistrations.Inc()
	return id
}

// NameOf resolves an ID back to its type string ("REVERSE").
func (r *Registry) NameOf(id int32) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id < 0 || int(id) >= len(r.names) {
		return "", false
	}
	return r.names[id], true
}

// View snapshots the full registry ("REQUEST_VIEW").
func (r *Registry) View() map[string]int32 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int32, len(r.ids))
	for n, id := range r.ids {
		out[n] = id
	}
	return out
}

// Len returns the number of registered types.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.names)
}

// Names returns all registered type strings in ID order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Announce records an executor block server's shuffle address under its
// executor ID ("ANNOUNCE"). Re-announcing overwrites — an executor that
// restarted on a new port simply advertises again.
func (r *Registry) Announce(id int32, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.peers == nil {
		r.peers = make(map[int32]string)
	}
	r.peers[id] = addr
}

// Peers snapshots the advertised executor ID → address map ("PEERS").
func (r *Registry) Peers() map[int32]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[int32]string, len(r.peers))
	for id, addr := range r.peers {
		out[id] = addr
	}
	return out
}

// Client is the worker side's connection to the driver. Implementations:
// InProc (same-process driver) and TCPClient (remote driver).
type Client interface {
	// RequestView fetches the driver's complete current registry.
	RequestView() (map[string]int32, error)
	// Lookup returns the global ID for a class name, registering it if new.
	Lookup(name string) (int32, error)
	// Reverse resolves a global ID back to a class name.
	Reverse(id int32) (string, error)
	// Close releases the connection.
	Close() error
}

// InProc is a Client wired directly to a Registry in the same process, used
// by single-process clusters (the common configuration for the simulated
// multi-node experiments).
type InProc struct{ R *Registry }

// RequestView implements Client.
func (c InProc) RequestView() (map[string]int32, error) { return c.R.View(), nil }

// Lookup implements Client.
func (c InProc) Lookup(name string) (int32, error) { return c.R.LookupOrAssign(name), nil }

// Reverse implements Client.
func (c InProc) Reverse(id int32) (string, error) {
	n, ok := c.R.NameOf(id)
	if !ok {
		return "", fmt.Errorf("registry: unknown type ID %d", id)
	}
	return n, nil
}

// Close implements Client.
func (c InProc) Close() error { return nil }

// Announce implements PeerClient.
func (c InProc) Announce(id int32, addr string) error {
	c.R.Announce(id, addr)
	return nil
}

// Peers implements PeerClient.
func (c InProc) Peers() (map[int32]string, error) { return c.R.Peers(), nil }

// PeerClient is the optional Client capability behind peer discovery:
// executor block servers Announce their shuffle listen addresses, and the
// driver-side transport Peers them back. Both InProc and TCPClient
// implement it; the capability is separate from Client so registry views
// (which only translate type IDs) stay unaware of cluster topology.
type PeerClient interface {
	// Announce publishes an executor block server's listen address.
	Announce(id int32, addr string) error
	// Peers returns the advertised executor ID → address map.
	Peers() (map[int32]string, error)
}

// View is the worker's registry view: the local cache of name↔ID mappings
// (Figure 5's "Registry View"). It consults the client only on misses, so
// each type string crosses the network at most once per worker (§4.1).
type View struct {
	mu      sync.RWMutex
	client  Client
	ids     map[string]int32
	names   map[int32]string
	misses  int // remote LOOKUPs issued
	reverse int // remote REVERSEs issued
}

// NewView creates a worker registry view backed by client, primed with a
// bulk REQUEST_VIEW (Algorithm 1, worker part 1).
func NewView(client Client) (*View, error) {
	v := &View{
		client: client,
		ids:    make(map[string]int32),
		names:  make(map[int32]string),
	}
	m, err := client.RequestView()
	if err != nil {
		return nil, fmt.Errorf("registry: REQUEST_VIEW: %w", err)
	}
	for n, id := range m {
		v.ids[n] = id
		v.names[id] = n
	}
	return v, nil
}

// IDFor returns the global ID for name, consulting the driver on a miss
// (Algorithm 1, worker part 2).
func (v *View) IDFor(name string) (int32, error) {
	v.mu.RLock()
	id, ok := v.ids[name]
	v.mu.RUnlock()
	if ok {
		return id, nil
	}
	id, err := v.client.Lookup(name)
	if err != nil {
		return -1, fmt.Errorf("registry: LOOKUP %s: %w", name, err)
	}
	v.mu.Lock()
	v.ids[name] = id
	v.names[id] = name
	v.misses++
	v.mu.Unlock()
	ctrRemoteLookups.Inc()
	return id, nil
}

// NameFor resolves id to a class name, consulting the driver on a miss.
func (v *View) NameFor(id int32) (string, error) {
	v.mu.RLock()
	n, ok := v.names[id]
	v.mu.RUnlock()
	if ok {
		return n, nil
	}
	n, err := v.client.Reverse(id)
	if err != nil {
		return "", err
	}
	v.mu.Lock()
	v.names[id] = n
	v.ids[n] = id
	v.reverse++
	v.mu.Unlock()
	ctrRemoteReverses.Inc()
	return n, nil
}

// RemoteLookups reports how many LOOKUP and REVERSE round trips the view has
// issued — the quantity §4.1 argues is orders of magnitude below the
// per-object type strings of the standard Java serializer.
func (v *View) RemoteLookups() (lookups, reverses int) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.misses, v.reverse
}
