package skyway

import (
	"bufio"
	"fmt"
	"net"
	"os"

	"skyway/internal/core"
)

// Convenience stream constructors mirroring the paper's
// SkywayFileOutputStream / SkywayFileInputStream and
// SkywaySocketOutputStream / SkywaySocketInputStream classes (§3.3): one can
// program with Skyway the same way as with the standard object streams.

// FileWriter is a Skyway object output stream backed by a file.
type FileWriter struct {
	*Writer
	f  *os.File
	bw *bufio.Writer
}

// NewFileWriter opens (creating/truncating) path as a Skyway object output
// stream on svc's runtime.
func NewFileWriter(svc *Service, path string, opts ...core.WriterOption) (*FileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("skyway: %w", err)
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	return &FileWriter{Writer: svc.NewWriter(bw, opts...), f: f, bw: bw}, nil
}

// Close finishes the stream and closes the file.
func (w *FileWriter) Close() error {
	if err := w.Writer.Close(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// FileReader is a Skyway object input stream backed by a file.
type FileReader struct {
	*Reader
	f *os.File
}

// NewFileReader opens path as a Skyway object input stream into rt's heap.
func NewFileReader(rt *Runtime, path string) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("skyway: %w", err)
	}
	return &FileReader{Reader: NewReader(rt, f), f: f}, nil
}

// Close closes the underlying file. Received objects stay live in the heap
// (release them with Free when done).
func (r *FileReader) Close() error { return r.f.Close() }

// SocketWriter is a Skyway object output stream over a TCP connection.
type SocketWriter struct {
	*Writer
	conn net.Conn
}

// DialWriter connects to addr and opens a Skyway object output stream over
// the connection. The Writer gets the connection itself, not a buffered
// wrapper: it already hands over a whole segment and its top marks at a
// time, which reach a net.Conn as one writev.
func DialWriter(svc *Service, addr string, opts ...core.WriterOption) (*SocketWriter, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("skyway: %w", err)
	}
	return &SocketWriter{Writer: svc.NewWriter(conn, opts...), conn: conn}, nil
}

// Close finishes the stream and closes the connection.
func (w *SocketWriter) Close() error {
	if err := w.Writer.Close(); err != nil {
		w.conn.Close()
		return err
	}
	return w.conn.Close()
}

// AcceptReader accepts one connection from ln and opens a Skyway object
// input stream over it.
func AcceptReader(rt *Runtime, ln net.Listener) (*Reader, net.Conn, error) {
	conn, err := ln.Accept()
	if err != nil {
		return nil, nil, fmt.Errorf("skyway: %w", err)
	}
	return NewReader(rt, conn), conn, nil
}
