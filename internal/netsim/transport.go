package netsim

import (
	"bytes"
	"sync"
	"time"

	"skyway/internal/transport"
)

// LocalTransport is the in-process transport.Transport: the historical
// simulator behind the seam. Each round's blocks live in a mutex-guarded
// store, nothing is measured, and the dataflow engine prices every byte
// with the analytic CostModel — exactly the accounting the single-process
// cluster has always reported.
type LocalTransport struct{}

// NewLocalTransport builds the in-process transport.
func NewLocalTransport() *LocalTransport { return &LocalTransport{} }

// NewShuffle implements transport.Transport.
func (t *LocalTransport) NewShuffle(seq int) (transport.Shuffle, error) {
	return &localShuffle{blocks: make(map[blockKey][]byte)}, nil
}

// Measured implements transport.Transport: all I/O here is modelled.
func (t *LocalTransport) Measured() bool { return false }

// Close implements transport.Transport.
func (t *LocalTransport) Close() error { return nil }

type blockKey struct{ src, dst int }

// localShuffle is one round's block store: serialized (mapper, partition)
// blocks land here on the map side and are taken — exactly once — by the
// partition's owning reducer. Parallel map and reduce tasks touch the store
// from concurrent goroutines; mu guards it.
type localShuffle struct {
	mu     sync.Mutex
	blocks map[blockKey][]byte
}

// Put implements transport.Shuffle, replacing any block already published
// under the key. The store keeps a copy: the caller's slice is its own again
// when Put returns.
func (s *localShuffle) Put(src, dst int, block []byte) (time.Duration, error) {
	b := bytes.Clone(block)
	s.mu.Lock()
	s.blocks[blockKey{src, dst}] = b
	s.mu.Unlock()
	return 0, nil
}

// Fetch implements transport.Shuffle. The stored block keeps the original
// bytes until Drop, so a fetch whose copy was damaged in flight can be
// retried from the intact source.
func (s *localShuffle) Fetch(src, dst int) ([]byte, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blocks[blockKey{src, dst}], 0, nil
}

// Drop implements transport.Shuffle. Dropping an absent key is a no-op.
func (s *localShuffle) Drop(src, dst int) {
	s.mu.Lock()
	delete(s.blocks, blockKey{src, dst})
	s.mu.Unlock()
}

// Close implements transport.Shuffle: the round's store goes with it.
func (s *localShuffle) Close() error { return nil }
