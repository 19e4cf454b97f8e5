package netsim

import (
	"bytes"
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
	return &localShuffle{blocks: transport.NewBlockStore[blockKey]()}, nil
}

// Measured implements transport.Transport: all I/O here is modelled.
func (t *LocalTransport) Measured() bool { return false }

// Close implements transport.Transport.
func (t *LocalTransport) Close() error { return nil }

type blockKey struct{ src, dst int }

// localShuffle is one round's block store: serialized (mapper, partition)
// blocks land here on the map side and are taken — exactly once — by the
// partition's owning reducer. Parallel map and reduce tasks touch the store
// from concurrent goroutines; the shared BlockStore guards access.
type localShuffle struct {
	blocks *transport.BlockStore[blockKey]
}

// Put implements transport.Shuffle. The store keeps a copy: the caller's
// slice is its own again when Put returns.
func (s *localShuffle) Put(src, dst int, block []byte) (time.Duration, error) {
	s.blocks.Put(blockKey{src, dst}, bytes.Clone(block))
	return 0, nil
}

// Fetch implements transport.Shuffle. The stored block keeps the original
// bytes until Drop, so a fetch whose copy was damaged in flight can be
// retried from the intact source.
func (s *localShuffle) Fetch(src, dst int) ([]byte, time.Duration, error) {
	block, _ := s.blocks.Get(blockKey{src, dst})
	return block, 0, nil
}

// Drop implements transport.Shuffle.
func (s *localShuffle) Drop(src, dst int) { s.blocks.Drop(blockKey{src, dst}) }

// Close implements transport.Shuffle: the round's store goes with it.
func (s *localShuffle) Close() error { return nil }
