package tcp

// flipStored XORs one byte of the block parked under (seq, src, dst) with
// 0xFF — damage done to the bytes while they sit on the server, which a GET
// must not re-sign. Calling it twice restores the byte. It reports whether
// the block is there.
func (s *Server) flipStored(seq, src, dst uint32, off int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.blocks[blockID{seq: seq, src: src, dst: dst}]
	if b == nil || off >= len(b.buf) {
		return false
	}
	b.buf[off] ^= 0xFF
	return true
}
