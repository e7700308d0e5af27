package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	"streamgpu/internal/server/wire"
)

// sample is one timed request as the client saw it. Times are offsets from
// the window start.
type sample struct {
	due    time.Duration // when it was due to be sent (closed loop: when it was sent)
	sentAt time.Duration // when the generator got to sending it
	done   time.Duration // when its verdict arrived
	bytes  int           // payload bytes it carries toward throughput
	ok     bool          // answered with a well-formed TResult
}

// client is one connection and the goroutine(s) driving it.
type client struct {
	id   int
	g    *generator
	reqs []request
	svc  wire.Svc
	conn net.Conn
	fw   *wire.Writer
	fr   *wire.Reader
	tr   *tracer

	scratch []byte
	// archive is every verdict payload of a dedup stream in order, TEnd
	// tail included, in an off-heap region sized for the worst case;
	// sampled holds the mandel responses kept for recomputation, by
	// request index.
	archive    []byte
	sampled    map[int][]byte
	sent, recv int64 // payload bytes, whole stream
	samples    []sample
}

// clientTimeout bounds every blocking socket call of a run; the watchdog
// fires first, this only keeps a stuck run from outliving it.
const clientTimeout = 170 * time.Second

func dial(addr string, id int, g *generator, tr *tracer) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	if err := conn.SetDeadline(time.Now().Add(clientTimeout)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("set deadline: %w", err)
	}
	cl := &client{
		id: id, g: g, reqs: g.reqs[id], svc: wire.SvcDedup, conn: conn, tr: tr,
		fw: wire.NewWriter(conn),
		// One response can carry a whole batch's archive delta.
		fr:      wire.NewReader(conn, 8<<20),
		scratch: make([]byte, g.scratchSize()),
		samples: make([]sample, len(g.reqs[id])-warmup),
	}
	if g.sp.svc == svcMandel {
		cl.svc = wire.SvcMandel
		cl.sampled = make(map[int][]byte)
		return cl, nil
	}
	// An archive stores a block raw when compression does not shrink it,
	// so it outgrows its input only by record headers.
	bound := 1 << 20
	for _, r := range cl.reqs {
		bound += r.size + r.size/16
	}
	if cl.archive, err = offHeap(bound); err != nil {
		conn.Close()
		return nil, err
	}
	cl.archive = cl.archive[:0]
	return cl, nil
}

// keep appends verdict payload p to the archive.
func (cl *client) keep(p []byte) error {
	if len(p) > cap(cl.archive)-len(cl.archive) {
		return fmt.Errorf("archive outgrew its %d byte bound", cap(cl.archive))
	}
	cl.archive = append(cl.archive, p...)
	return nil
}

// close closes the connection and releases the archive.
func (cl *client) close() {
	cl.conn.Close()
	free(cl.archive)
	cl.archive = nil
}

// send writes request i and flushes it to the socket.
func (cl *client) send(i int) error {
	p := cl.g.payload(cl.reqs[i], cl.scratch)
	cl.sent += int64(len(p))
	f := wire.Frame{Type: wire.TData, Svc: cl.svc, Tenant: uint32(cl.id + 1), Seq: uint64(i), Payload: p}
	if err := cl.fw.Write(f); err != nil {
		return fmt.Errorf("send %d: %w", i, err)
	}
	if err := cl.fw.Flush(); err != nil {
		return fmt.Errorf("send %d: %w", i, err)
	}
	return nil
}

// errRefused marks a verdict that fails one request but not the connection.
var errRefused = errors.New("request refused")

// verdict reads the next verdict frame and returns the request it answers.
// A reject or a malformed mandel response returns errRefused with the
// request's index; anything else that is not a TResult is fatal.
func (cl *client) verdict() (int, error) {
	f, err := cl.fr.Next()
	if err != nil {
		return 0, fmt.Errorf("awaiting verdict: %w", err)
	}
	verdicts.Add(1)
	i := int(f.Seq)
	switch f.Type {
	case wire.TResult:
		if i < 0 || i >= len(cl.reqs) {
			return 0, fmt.Errorf("verdict for unknown request %d", f.Seq)
		}
		cl.recv += int64(len(f.Payload))
		if cl.svc == wire.SvcDedup {
			return i, cl.keep(f.Payload)
		}
		if len(f.Payload) != mandelRows*mandelDim {
			return i, errRefused
		}
		if i >= warmup && (i-warmup)%mandelSample == 0 {
			cl.sampled[i] = append([]byte(nil), f.Payload...)
		}
		return i, nil
	case wire.TReject:
		return i, errRefused
	case wire.TError:
		return 0, fmt.Errorf("server error: %s", f.Payload)
	default:
		return 0, fmt.Errorf("unexpected %s frame", f.Type)
	}
}

// warm sends the uncounted warm-up requests one at a time.
func (cl *client) warm() error {
	for i := 0; i < warmup; i++ {
		if err := cl.send(i); err != nil {
			return err
		}
		if _, err := cl.verdict(); err != nil {
			return fmt.Errorf("warm-up %d: %w", i, err)
		}
	}
	return nil
}

// payloadBytes is what request i counts toward throughput: its own bytes
// for dedup, the rows it returns for mandel.
func (cl *client) payloadBytes(i int) int {
	if cl.svc == wire.SvcMandel {
		return mandelRows * mandelDim
	}
	return cl.reqs[i].size
}

// closedLoop sends each timed request only after the previous verdict.
func (cl *client) closedLoop(t0 time.Time) error {
	for i := warmup; i < len(cl.reqs); i++ {
		s := &cl.samples[i-warmup]
		start := time.Now()
		if err := cl.send(i); err != nil {
			return err
		}
		flushed := time.Now()
		got, err := cl.verdict()
		end := time.Now()
		if err != nil && err != errRefused {
			return err
		}
		if got != i {
			return fmt.Errorf("verdict for request %d while waiting for %d", got, i)
		}
		s.due, s.sentAt, s.done = start.Sub(t0), start.Sub(t0), end.Sub(t0)
		s.bytes, s.ok = cl.payloadBytes(i), err == nil
		cl.traceRequest(i, start, start, flushed, end)
	}
	return nil
}

// openLoop sends on the schedule whatever the server does: a sender
// goroutine sleeps to each due time and writes, this goroutine reads
// verdicts. A request is timed from when it was due, so a stall charges the
// requests queued behind it.
func (cl *client) openLoop(t0 time.Time) error {
	sendErr := make(chan error, 1)
	go func() {
		for i := warmup; i < len(cl.reqs); i++ {
			s := &cl.samples[i-warmup]
			s.due = cl.reqs[i].due
			if d := time.Until(t0.Add(s.due)); d > 0 {
				time.Sleep(d)
			}
			s.sentAt = time.Since(t0)
			if err := cl.send(i); err != nil {
				// Unblock the reader: nothing more will be answered.
				cl.conn.Close()
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	var readErr error
	for k := 0; k < len(cl.samples); k++ {
		i, err := cl.verdict()
		if err != nil && err != errRefused {
			readErr = err
			// Unblock the sender, which may be stuck on a full socket.
			cl.conn.Close()
			break
		}
		if i < warmup {
			readErr = fmt.Errorf("second verdict for warm-up request %d", i)
			cl.conn.Close()
			break
		}
		s := &cl.samples[i-warmup]
		s.done = time.Since(t0)
		s.bytes, s.ok = cl.payloadBytes(i), err == nil
	}
	if err := <-sendErr; err != nil {
		return err
	}
	if readErr != nil {
		return readErr
	}
	for k, s := range cl.samples {
		due := t0.Add(s.due)
		sent := t0.Add(s.sentAt)
		cl.traceRequest(warmup+k, due, sent, sent, t0.Add(s.done))
	}
	return nil
}

// traceRequest records the client spans of request i: the whole request
// from its due time to its verdict, and under it the send.
func (cl *client) traceRequest(i int, due, sendStart, sendEnd, done time.Time) {
	if cl.tr == nil {
		return
	}
	req := int64(cl.id)<<32 | int64(i)
	id := cl.tr.add("client.request", 0, req, due, done)
	cl.tr.add("client.send", id, req, sendStart, sendEnd)
}

// end performs the TEnd handshake, collecting the archive tail, and closes
// the connection; the archive stays for verification.
func (cl *client) end() error {
	defer cl.conn.Close()
	if err := cl.fw.Write(wire.Frame{Type: wire.TEnd}); err != nil {
		return fmt.Errorf("send end: %w", err)
	}
	if err := cl.fw.Flush(); err != nil {
		return fmt.Errorf("send end: %w", err)
	}
	for {
		f, err := cl.fr.Next()
		if err != nil {
			return fmt.Errorf("awaiting end: %w", err)
		}
		switch f.Type {
		case wire.TResult, wire.TEnd:
			// Only a dedup stream has a tail; a mandel session's TEnd
			// carries an empty archive's header, which is not a response.
			if cl.svc == wire.SvcDedup {
				cl.recv += int64(len(f.Payload))
				if err := cl.keep(f.Payload); err != nil {
					return err
				}
			}
			if f.Type == wire.TEnd {
				return nil
			}
		case wire.TError:
			return fmt.Errorf("server error at end: %s", f.Payload)
		}
	}
}
