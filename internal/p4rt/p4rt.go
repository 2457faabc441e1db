// Package p4rt is the control-plane interface of NetCL devices, in the
// spirit of the P4Runtime API the paper's host runtime uses for
// _managed_ memory (§V-B, requirement R6): register access and
// transactional table/register write batches, over a direct in-process
// binding or a TCP transport for real deployments.
//
// The write surface is batch-first: a WriteBatch carries entry
// inserts/modifies/deletes, register writes, and default-action
// changes as one all-or-nothing unit, applied atomically by the device
// (a packet observes all of the batch or none of it) and carried over
// the wire in a single versioned request frame (wire.go). Write is the
// only way to change device state: a single op is a one-op batch.
package p4rt

import (
	"bufio"
	"errors"
	"net"
	"sync"

	"netcl/internal/bmv2"
)

// Batch vocabulary, shared with the switch implementation (bmv2 owns
// the types so the in-process binding and the wire encoding agree).
type (
	// WriteBatch accumulates ops for one transactional Write.
	WriteBatch = bmv2.WriteBatch
	// WriteResult reports per-op outcomes of a committed batch.
	WriteResult = bmv2.WriteResult
	// BatchError names the op that failed a Write.
	BatchError = bmv2.BatchError
	// Op is one batch operation.
	Op = bmv2.Op
	// OpKind discriminates batch operations.
	OpKind = bmv2.OpKind
)

// Re-exported op kinds.
const (
	OpInsert        = bmv2.OpInsert
	OpModify        = bmv2.OpModify
	OpDelete        = bmv2.OpDelete
	OpRegisterWrite = bmv2.OpRegisterWrite
	OpSetDefault    = bmv2.OpSetDefault
)

// NewWriteBatch returns an empty batch.
func NewWriteBatch() *WriteBatch { return bmv2.NewWriteBatch() }

// Client is the control-plane surface used by the host runtime:
// register reads plus transactional write batches. A failed Write
// returns a *BatchError naming the op, and nothing took effect. Write
// keeps nothing of the batch once it returns (bmv2.Switch.Write copies
// what it keeps; the TCP server decodes into storage it reuses).
type Client interface {
	RegisterRead(name string, idx int) (uint64, error)
	Write(b *WriteBatch) (*WriteResult, error)
}

// Direct is an in-process client bound to a behavioral-model switch.
// The switch serializes control-plane calls itself.
type Direct struct {
	SW *bmv2.Switch
}

// RegisterRead implements Client.
func (d *Direct) RegisterRead(name string, idx int) (uint64, error) {
	return d.SW.RegisterRead(name, idx)
}

// Write implements Client: the batch applies transactionally on the
// switch and publishes one rule-set generation.
func (d *Direct) Write(b *WriteBatch) (*WriteResult, error) { return d.SW.Write(b) }

// Server exposes a switch's control plane on a TCP listener.
type Server struct {
	lis net.Listener
	cl  Client
	wg  sync.WaitGroup
}

// Serve starts a control-plane server on addr (e.g. "127.0.0.1:0").
func Serve(addr string, cl Client) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{lis: lis, cl: cl}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops the server.
func (s *Server) Close() error {
	err := s.lis.Close()
	s.wg.Wait()
	return err
}

func (s *Server) loop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// handle serves one connection; a bad frame gets its typed error, then a close.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	var d wireReader
	var out []byte
	var batch WriteBatch
	for {
		req, err := d.read(r, kindRRead, kindWrite)
		bad := errors.Is(err, ErrMalformedFrame) || errors.Is(err, ErrUnsupportedVersion)
		if err != nil && !bad {
			return // the peer hung up
		}
		resp := msg{kind: kindResp}
		switch {
		case bad:
		case req.kind == kindRRead:
			resp.val, err = s.cl.RegisterRead(req.reg, req.idx)
		default:
			batch.Ops = req.ops
			var res *WriteResult
			if res, err = s.cl.Write(&batch); err == nil {
				resp.removed = res.Removed
			}
		}
		if err != nil {
			resp.setErr(err)
		}
		out, _ = appendFrame(out[:0], &resp) // only a write frame can fail to encode
		if _, err := conn.Write(out); err != nil || bad {
			return
		}
	}
}

// TCPClient is a Client over a TCP control-plane connection.
type TCPClient struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	d    wireReader
	out  []byte
}

// Dial connects to a device control plane.
func Dial(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPClient{conn: conn, r: bufio.NewReader(conn)}, nil
}

// Close closes the connection.
func (c *TCPClient) Close() error { return c.conn.Close() }

// roundTrip sends one request and returns the response and its error.
func (c *TCPClient) roundTrip(req *msg) (msg, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if c.out, err = appendFrame(c.out[:0], req); err != nil {
		return msg{}, err
	}
	if _, err := c.conn.Write(c.out); err != nil {
		return msg{}, err
	}
	resp, err := c.d.read(c.r, kindResp)
	if err != nil {
		return msg{}, err
	}
	return *resp, resp.err()
}

// RegisterRead implements Client.
func (c *TCPClient) RegisterRead(name string, idx int) (uint64, error) {
	resp, err := c.roundTrip(&msg{kind: kindRRead, reg: name, idx: idx})
	return resp.val, err
}

// Write implements Client: the whole batch crosses the wire in one
// frame and applies transactionally on the device. A failed batch
// comes back as a *BatchError carrying the remote op index.
func (c *TCPClient) Write(b *WriteBatch) (*WriteResult, error) {
	if b == nil || len(b.Ops) == 0 {
		return &WriteResult{}, nil
	}
	resp, err := c.roundTrip(&msg{kind: kindWrite, ops: b.Ops})
	if err != nil {
		return nil, err
	}
	return &WriteResult{Removed: resp.removed}, nil
}
