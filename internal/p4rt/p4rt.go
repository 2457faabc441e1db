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
// the wire in a single versioned request frame. Write is the only way
// to change device state: a single op is a one-op batch.
package p4rt

import (
	"encoding/gob"
	"fmt"
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
// returns a *BatchError naming the op, and nothing took effect.
type Client interface {
	RegisterRead(name string, idx int) (uint64, error)
	Write(b *WriteBatch) (*WriteResult, error)
}

// Direct is an in-process client bound to a behavioral-model switch.
type Direct struct {
	SW *bmv2.Switch
	mu sync.Mutex
}

// RegisterRead implements Client.
func (d *Direct) RegisterRead(name string, idx int) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.SW.RegisterRead(name, idx)
}

// Write implements Client: the batch applies transactionally on the
// switch and publishes one rule-set generation.
func (d *Direct) Write(b *WriteBatch) (*WriteResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.SW.Write(b)
}

// Wire protocol (gob-encoded request/response frames over TCP).
//
// Version 2 made a request either a register read or one whole write
// batch — the entire transaction rides in a single frame, so a
// NetCache-scale churn burst costs one round trip instead of one per
// op. Version 3 packs the op list itself (see wire.go): the frame is
// still gob, but the batch crosses as one varint-packed byte string
// instead of reflection-encoded structs. Versioning is explicit; a
// server rejects frames whose version it does not speak instead of
// misreading them.

// wireVersion is the protocol revision this package speaks.
const wireVersion = 3

type request struct {
	Ver  int
	Op   string // "rread", "write"
	Name string // rread: register name
	Idx  int    // rread: cell index
	Ops  opList // write: the batch
}

type response struct {
	Val      uint64 // rread result
	Removed  []int  // write: per-op removed counts
	FailedOp int    // write: index of the failed op, -1 otherwise
	Err      string
}

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

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := response{FailedOp: -1}
		switch {
		case req.Ver != wireVersion:
			resp.Err = fmt.Sprintf("unsupported wire version %d (speak %d)", req.Ver, wireVersion)
		case req.Op == "rread":
			v, err := s.cl.RegisterRead(req.Name, req.Idx)
			resp.Val = v
			resp.Err = errString(err)
		case req.Op == "write":
			res, err := s.cl.Write(&WriteBatch{Ops: []Op(req.Ops)})
			if err != nil {
				resp.Err = errString(err)
				if be, ok := err.(*BatchError); ok {
					resp.FailedOp = be.Index
					resp.Err = errString(be.Err)
				}
			} else {
				resp.Removed = res.Removed
			}
		default:
			resp.Err = fmt.Sprintf("unknown op %q", req.Op)
		}
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TCPClient is a Client over a TCP control-plane connection.
type TCPClient struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// Dial connects to a device control plane.
func Dial(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPClient{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

// Close closes the connection.
func (c *TCPClient) Close() error { return c.conn.Close() }

func (c *TCPClient) roundTrip(req *request) (*response, error) {
	req.Ver = wireVersion
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return nil, err
	}
	var resp response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, err
	}
	if resp.Err != "" {
		err := fmt.Errorf("%s", resp.Err)
		if resp.FailedOp >= 0 {
			err = &BatchError{Index: resp.FailedOp, Err: err}
		}
		return &resp, err
	}
	return &resp, nil
}

// RegisterRead implements Client.
func (c *TCPClient) RegisterRead(name string, idx int) (uint64, error) {
	resp, err := c.roundTrip(&request{Op: "rread", Name: name, Idx: idx})
	if err != nil {
		return 0, err
	}
	return resp.Val, nil
}

// Write implements Client: the whole batch crosses the wire in one
// frame and applies transactionally on the device. A failed batch
// comes back as a *BatchError carrying the remote op index.
func (c *TCPClient) Write(b *WriteBatch) (*WriteResult, error) {
	if b == nil || len(b.Ops) == 0 {
		return &WriteResult{}, nil
	}
	resp, err := c.roundTrip(&request{Op: "write", Ops: opList(b.Ops)})
	if err != nil {
		return nil, err
	}
	return &WriteResult{Removed: resp.Removed}, nil
}
