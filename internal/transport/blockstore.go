package transport

import "sync"

// BlockStore is the shared block-parking helper behind both Transport
// implementations: netsim keys blocks by (src, dst) within a round's store,
// the TCP block servers by their wire block ID. A block sits in the store
// from its Put until the consuming task's Drop.
type BlockStore[K comparable] struct {
	mu     sync.Mutex
	blocks map[K][]byte
}

// NewBlockStore builds an empty store.
func NewBlockStore[K comparable]() *BlockStore[K] {
	return &BlockStore[K]{blocks: make(map[K][]byte)}
}

// Put parks block under k, replacing any block already there. The store
// adopts the slice; the caller must not write to it afterwards.
func (s *BlockStore[K]) Put(k K, block []byte) {
	s.mu.Lock()
	s.blocks[k] = block
	s.mu.Unlock()
}

// Get returns the block parked under k; callers must not mutate it.
func (s *BlockStore[K]) Get(k K) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blocks[k]
	return b, ok
}

// Drop releases the block parked under k. Dropping an absent key is a no-op.
func (s *BlockStore[K]) Drop(k K) {
	s.mu.Lock()
	delete(s.blocks, k)
	s.mu.Unlock()
}

// Len reports how many blocks are parked.
func (s *BlockStore[K]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}
