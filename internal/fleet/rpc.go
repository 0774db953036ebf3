package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"farm/internal/tasks"
	"farm/internal/transport"
)

// The operator RPC rides the transport package's length-prefixed TCP
// batch framing (the Fig. 10 socket path) with JSON payloads: one
// request record in, one response record out, concurrent across
// connections.
//
// Both directions encode through pooled codecs instead of per-call
// json.Marshal: a json.Encoder writes straight into a reusable byte
// slice (server side: the transport's connection-local scratch, so the
// response JSON lands directly in the outgoing wire frame), and the
// encoder machinery itself is recycled through a sync.Pool.
//
// Ops: ping, submit <task>, retire <task>, status, catalogue.

// sliceWriter adapts an append-grown byte slice to io.Writer so a
// json.Encoder can emit into transport-owned buffers.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// rpcCodec is one pooled encoder. The sliceWriter's buffer is swapped
// in per call and detached before the codec returns to the pool, so
// the pooled object never retains (or races on) wire memory.
type rpcCodec struct {
	sw  sliceWriter
	enc *json.Encoder
}

// codecPool is shared by the RPC server's per-connection goroutines and
// by clients on any goroutine.
var codecPool = sync.Pool{New: func() any {
	c := &rpcCodec{}
	c.enc = json.NewEncoder(&c.sw)
	return c
}}

// encodeInto appends v's JSON encoding (plus the encoder's trailing
// newline) to dst using a pooled encoder.
func encodeInto(dst []byte, v any) ([]byte, error) {
	c := codecPool.Get().(*rpcCodec)
	c.sw.b = dst
	err := c.enc.Encode(v)
	out := c.sw.b
	c.sw.b = nil
	codecPool.Put(c)
	if err != nil {
		return dst, err
	}
	return out, nil
}

type rpcRequest struct {
	Op   string `json:"op"`
	Task string `json:"task,omitempty"`
}

type rpcResponse struct {
	OK bool `json:"ok"`
	// Err is set when OK is false; Retryable marks leadership gaps the
	// client may simply retry through (a standby is taking over).
	Err       string          `json:"err,omitempty"`
	Retryable bool            `json:"retryable,omitempty"`
	Status    *StatusSnapshot `json:"status,omitempty"`
	Catalogue []string        `json:"catalogue,omitempty"`
}

// rpcState tracks the service's RPC listener.
type rpcState struct {
	srv *transport.TCPServer
}

func (s *Service) startRPC() error {
	if s.cfg.RPCAddr == "" {
		return nil
	}
	srv, err := transport.NewTCPServerOn(s.cfg.RPCAddr, s.handleRPC)
	if err != nil {
		return err
	}
	s.rpcState.srv = srv
	return nil
}

// RPCAddr returns the RPC listen address ("" when disabled).
func (s *Service) RPCAddr() string {
	if s.rpcState.srv == nil {
		return ""
	}
	return s.rpcState.srv.Addr()
}

func (s *Service) handleRPC(dst, req []byte) []byte {
	var q rpcRequest
	resp := rpcResponse{OK: true}
	if err := json.Unmarshal(req, &q); err != nil {
		resp = errResponse(fmt.Errorf("fleet: bad request: %w", err))
	} else {
		resp = s.dispatchRPC(q)
	}
	out, err := encodeInto(dst[:0], &resp)
	if err != nil {
		return append(dst[:0], `{"ok":false,"err":"fleet: response marshal failed"}`...)
	}
	return out
}

func (s *Service) dispatchRPC(q rpcRequest) rpcResponse {
	switch q.Op {
	case "ping":
		return rpcResponse{OK: true}
	case "submit":
		if err := s.Submit(q.Task); err != nil {
			return errResponse(err)
		}
		return rpcResponse{OK: true}
	case "retire":
		if err := s.Retire(q.Task); err != nil {
			return errResponse(err)
		}
		return rpcResponse{OK: true}
	case "status":
		st, err := s.Status()
		if err != nil {
			return errResponse(err)
		}
		return rpcResponse{OK: true, Status: st}
	case "catalogue":
		return rpcResponse{OK: true, Catalogue: tasks.Names()}
	default:
		return errResponse(fmt.Errorf("fleet: unknown op %q", q.Op))
	}
}

func errResponse(err error) rpcResponse {
	return rpcResponse{
		OK:        false,
		Err:       err.Error(),
		Retryable: errors.Is(err, ErrNoLeader),
	}
}

// Client is an operator-side RPC client for a running fleetd. Requests
// encode into a client-owned reusable buffer (mu serializes calls from
// the goroutines sharing the client, as the underlying Conn would
// anyway).
type Client struct {
	conn transport.Conn
	mu   sync.Mutex
	enc  []byte
}

// Dial connects to a fleetd RPC endpoint.
func Dial(addr string) (*Client, error) {
	conn, err := transport.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) call(q rpcRequest) (rpcResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	enc, err := encodeInto(c.enc[:0], &q)
	if err != nil {
		return rpcResponse{}, err
	}
	c.enc = enc
	// raw aliases the connection's receive arena: decode before the
	// next call (we hold mu, so that is guaranteed).
	raw, err := c.conn.Call(c.enc)
	if err != nil {
		return rpcResponse{}, err
	}
	var resp rpcResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return rpcResponse{}, fmt.Errorf("fleet: bad response: %w", err)
	}
	return resp, nil
}

// retryableError marks a server-reported condition the caller may wait
// out (no leader during failover).
type retryableError struct{ msg string }

func (e retryableError) Error() string { return e.msg }

// IsRetryable reports whether err is a transient leadership gap.
func IsRetryable(err error) bool {
	var re retryableError
	return errors.As(err, &re)
}

func (c *Client) do(q rpcRequest) (rpcResponse, error) {
	resp, err := c.call(q)
	if err != nil {
		return resp, err
	}
	if !resp.OK {
		msg := resp.Err
		if msg == "" {
			msg = "fleet: request refused without a reason"
		}
		if resp.Retryable {
			return resp, retryableError{msg: msg}
		}
		return resp, errors.New(msg)
	}
	return resp, nil
}

// Ping round-trips a no-op.
func (c *Client) Ping() error {
	_, err := c.do(rpcRequest{Op: "ping"})
	return err
}

// Submit deploys a catalogue task on the fleet.
func (c *Client) Submit(task string) error {
	_, err := c.do(rpcRequest{Op: "submit", Task: task})
	return err
}

// Retire undeploys a task.
func (c *Client) Retire(task string) error {
	_, err := c.do(rpcRequest{Op: "retire", Task: task})
	return err
}

// Status fetches the service status snapshot.
func (c *Client) Status() (*StatusSnapshot, error) {
	resp, err := c.do(rpcRequest{Op: "status"})
	if err != nil {
		return nil, err
	}
	if resp.Status == nil {
		return nil, errors.New("fleet: bad response: no status")
	}
	return resp.Status, nil
}

// SubmitWait submits with retries across leadership gaps: while the
// server answers "no leader", it backs off and retries until the
// deadline — the client half of surviving a failover without losing
// the task.
func (c *Client) SubmitWait(task string, deadline time.Duration) error {
	return c.retryWait(deadline, func() error { return c.Submit(task) })
}

// RetireWait retires with the same retry behavior as SubmitWait.
func (c *Client) RetireWait(task string, deadline time.Duration) error {
	return c.retryWait(deadline, func() error { return c.Retire(task) })
}

func (c *Client) retryWait(deadline time.Duration, op func() error) error {
	start := time.Now()
	for {
		err := op()
		if err == nil || !IsRetryable(err) {
			return err
		}
		if time.Since(start) > deadline {
			return fmt.Errorf("fleet: gave up after %v: %w", deadline, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
