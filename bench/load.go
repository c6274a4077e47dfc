package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"turbobp/internal/netproto"
)

// requestDeadline bounds every request, at the server (it answers
// StatusDeadline past it) and on the socket, so a wedged server fails
// operations instead of hanging the run.
const requestDeadline = 2 * time.Second

// transport sends one request frame and returns the response, valid until
// the next call.
type transport interface {
	do(req *netproto.Request) (*netproto.Response, error)
	close()
}

// plainTransport is the measured path: netproto.Client, exactly what a
// user of the wire protocol runs, retries and reconnects included.
type plainTransport struct{ cl *netproto.Client }

func dialPlain(addr string, seed uint64) (*plainTransport, error) {
	// Two retries, not the client's default eight: a wedged server must fail
	// an operation within seconds, or -max-time could not end the run.
	cl, err := netproto.Dial(netproto.ClientConfig{Addr: addr, Deadline: requestDeadline, MaxRetries: 2, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &plainTransport{cl}, nil
}

func (t *plainTransport) do(req *netproto.Request) (*netproto.Response, error) {
	before := t.cl.Stats().Reconnects
	resp, err := t.cl.Do(req)
	if err == nil && t.cl.Stats().Reconnects != before {
		// The server-side session (its open transaction) is gone; the
		// caller must not take this response as part of a sequence.
		return nil, errors.New("reconnected mid-request")
	}
	return resp, err
}

func (t *plainTransport) close() { t.cl.Close() }

// tracedTransport speaks the same frames through WriteRequest/ReadResponse
// on its own buffered connection, so it can cut each round trip into
// encode, flush, wait-for-first-byte and decode spans under the caller's
// root span.
type tracedTransport struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	resp netproto.Response
	rec  *recorder
	root uint32 // the open root span the next frames belong to
}

func dialTraced(addr string, rec *recorder) (*tracedTransport, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &tracedTransport{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), rec: rec}, nil
}

func (t *tracedTransport) do(req *netproto.Request) (*netproto.Response, error) {
	req.DeadlineMS = uint32(requestDeadline / time.Millisecond)
	t.conn.SetDeadline(time.Now().Add(2 * requestDeadline))
	rec := t.rec
	if t.root == 0 {
		rec = nil // the root span was dropped; so are its children
	}
	s := rec.begin(spEncode, t.root)
	err := netproto.WriteRequest(t.bw, req)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin(spFlush, t.root)
	err = t.bw.Flush()
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin(spServerWait, t.root)
	_, err = t.br.Peek(1)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin(spDecode, t.root)
	err = netproto.ReadResponse(t.br, &t.resp)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	return &t.resp, nil
}

func (t *tracedTransport) close() { t.conn.Close() }

// pageSeq is what a page's single writer knows about it: the last sequence
// number whose commit was acknowledged and the last one ever sent. A read
// must find the page between the two.
type pageSeq struct{ acked, maxSent uint64 }

// client is one closed-loop caller: it owns a generator, the stamps it has
// written, and its measurements. It survives from the warm-up into the
// measured passes; each pass gives it a fresh connection.
type client struct {
	id, clients int
	workload    string
	gen         *generator
	track       map[int64]*pageSeq
	value       [valueSize]byte

	readNS, txNS      []int64 // one exact sample per completed op
	attempted, failed int64
	firstErr          error
}

func newClients(workload string, seed uint64, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{id: i, clients: n, workload: workload,
			gen: newGenerator(workload, seed, i, n), track: map[int64]*pageSeq{}}
	}
	return cs
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

var zeroPage [pageSize]byte

// checkGet verifies one Get response. On the read-only workloads the
// database is freshly formatted, so a page is exactly pageSize zero bytes;
// on srv_update_mix it is either unwritten or carries an intact stamp from
// its one legal writer, and a page this client owns sits between its acked
// floor and its sent ceiling.
func (c *client) checkGet(pid int64, resp *netproto.Response) error {
	if resp.Status != netproto.StatusOK {
		return fmt.Errorf("get page %d: status %d: %s", pid, resp.Status, resp.Data)
	}
	if len(resp.Data) != pageSize {
		return fmt.Errorf("get page %d: %d bytes, want %d", pid, len(resp.Data), pageSize)
	}
	if c.workload != wlUpdateMix {
		if !bytes.Equal(resp.Data, zeroPage[:]) {
			return fmt.Errorf("get page %d: payload of a never-written page is not zero", pid)
		}
		return nil
	}
	seq, writer, st := readStamp(resp.Data, pid)
	own := c.track[pid] // nil unless this client has written the page
	switch st {
	case stampCorrupt:
		return fmt.Errorf("get page %d: corrupt stamp", pid)
	case stampUnwritten:
		if own != nil && own.acked > 0 {
			return fmt.Errorf("get page %d: acked seq %d lost (page reads unwritten)", pid, own.acked)
		}
	case stampOK:
		if int64(writer) != pid%int64(c.clients) {
			return fmt.Errorf("get page %d: stamped by writer %d, not its owner", pid, writer)
		}
		if own != nil && (seq < own.acked || seq > own.maxSent) {
			return fmt.Errorf("get page %d: seq %d outside [acked %d, sent %d]", pid, seq, own.acked, own.maxSent)
		}
	}
	return nil
}

// get runs one OpGet and checks it.
func (c *client) get(t transport, pid int64) error {
	resp, err := t.do(&netproto.Request{Op: netproto.OpGet, Page: pid})
	if err != nil {
		return err
	}
	return c.checkGet(pid, resp)
}

// tx runs one write transaction: a stamped update of each page, then the
// commit. Only an acknowledged commit raises the pages' acked floor.
func (c *client) tx(t transport, o op) error {
	pages := [2]int64{o.a, o.b}
	var seqs [2]uint64
	for i, pid := range pages {
		s := c.track[pid]
		if s == nil {
			s = &pageSeq{}
			c.track[pid] = s
		}
		s.maxSent++
		seqs[i] = s.maxSent
		stamp(c.value[:], pid, s.maxSent, uint32(c.id))
		resp, err := t.do(&netproto.Request{Op: netproto.OpUpdate, Page: pid, Data: c.value[:]})
		if err != nil {
			return err
		}
		if resp.Status != netproto.StatusOK {
			return fmt.Errorf("update page %d: status %d: %s", pid, resp.Status, resp.Data)
		}
	}
	resp, err := t.do(&netproto.Request{Op: netproto.OpCommit})
	if err != nil {
		return err
	}
	if resp.Status != netproto.StatusOK {
		return fmt.Errorf("commit: status %d: %s", resp.Status, resp.Data)
	}
	for i, pid := range pages {
		c.track[pid].acked = seqs[i]
	}
	return nil
}

// passKind selects what a pass of the clients does.
type passKind int

const (
	passWarmup passKind = iota // a fixed number of ops, unmeasured
	passWindow                 // ops until told to stop, measured
	passVerify                 // re-read every page this client wrote
)

// run executes one pass on a fresh connection. ops counts completed
// operations for the window sampler; stop ends a passWindow.
func (c *client) run(ctx context.Context, addr string, kind passKind, warmOps int, rec *recorder,
	ops *atomic.Int64, stop *atomic.Bool) {
	var t transport
	var err error
	var traced *tracedTransport
	if rec != nil {
		traced, err = dialTraced(addr, rec)
		t = traced
	} else {
		t, err = dialPlain(addr, uint64(c.id)+1)
	}
	if err != nil {
		c.attempted++
		c.fail(err)
		return
	}
	defer t.close()

	if kind == passVerify {
		pids := make([]int64, 0, len(c.track))
		for pid := range c.track {
			pids = append(pids, pid)
		}
		slices.Sort(pids)
		for _, pid := range pids {
			if ctx.Err() != nil {
				return
			}
			c.attempted++
			if err := c.get(t, pid); err != nil {
				c.fail(err)
			}
		}
		return
	}

	consecutive := 0
	for i := 0; ; i++ {
		if kind == passWarmup && i >= warmOps || kind == passWindow && stop.Load() || ctx.Err() != nil {
			return
		}
		var o op
		if kind == passWarmup && c.workload == wlReadHot {
			o = warmupOp(i, c.id, c.clients)
		} else {
			o = c.gen.next()
		}
		c.attempted++
		name := spOpGet
		if o.kind == opTx {
			name = spOpTx
		}
		t0 := time.Now()
		root := rec.begin(name, 0) // a nil recorder records nothing
		if traced != nil {
			traced.root = root
		}
		if o.kind == opGet {
			err = c.get(t, o.a)
		} else {
			err = c.tx(t, o)
		}
		rec.end(root)
		d := time.Since(t0)
		if err != nil {
			c.fail(err)
			if consecutive++; consecutive >= 20 {
				return // the server is gone; do not spin through the window
			}
			continue
		}
		consecutive = 0
		if kind == passWindow {
			if o.kind == opGet {
				c.readNS = append(c.readNS, int64(d))
			} else {
				c.txNS = append(c.txNS, int64(d))
			}
			ops.Add(1)
		}
	}
}

// window is one slice of a measured pass.
type window struct {
	seconds  float64
	ops      int64
	cpuTicks int64 // the server's CPU time over the slice
}

// pass is what a measured pass yields.
type pass struct {
	windows      []window
	readNS, txNS []int64 // ascending
	recs         []*recorder
}

// opsPerSec is the median of the windows' rates: one stalled second moves
// it far less than it moves the mean.
func (p *pass) opsPerSec() float64 { return median(p.rates()) }

// cpuPerOp is the median over the windows of server CPU microseconds per
// completed operation.
func (p *pass) cpuPerOp() float64 {
	v := make([]float64, 0, len(p.windows))
	for _, w := range p.windows {
		if w.ops > 0 {
			v = append(v, float64(w.cpuTicks)*usPerTick/float64(w.ops))
		}
	}
	return median(v)
}

func (p *pass) rates() []float64 {
	v := make([]float64, len(p.windows))
	for i, w := range p.windows {
		v[i] = float64(w.ops) / w.seconds
	}
	return v
}

// spansPerClient bounds a traced pass's recorder: 2^19 spans of 40 bytes.
// A Get is five spans, so this holds the ~100 000 operations one client
// completes in the longest traced pass the benchmark runs.
const spansPerClient = 1 << 19

// runPass drives every client through one pass and waits for them all.
// For passWindow it samples completed operations and the server's CPU in
// about one-second windows for the given duration, then stops the clients.
func runPass(ctx context.Context, srv *server, cs []*client, kind passKind, d time.Duration, traced bool) *pass {
	p := &pass{}
	var ops atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	origin := time.Now()
	for _, c := range cs {
		c.readNS, c.txNS = c.readNS[:0], c.txNS[:0]
		var rec *recorder
		if traced {
			rec = newRecorder(origin, spansPerClient)
			p.recs = append(p.recs, rec)
		}
		warm := (warmupOps(c.workload) + len(cs) - 1) / len(cs)
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(ctx, srv.addr, kind, warm, rec, &ops, &stop)
		}(c)
	}
	if kind == passWindow {
		n := int(d.Seconds() + 0.5)
		if n < 4 {
			n = 4
		}
		lastT, lastOps, lastCPU := time.Now(), ops.Load(), srv.cpuTicks()
		for i := 1; i <= n && ctx.Err() == nil; i++ {
			select {
			case <-time.After(time.Until(origin.Add(d * time.Duration(i) / time.Duration(n)))):
			case <-ctx.Done():
			}
			t, o, cpu := time.Now(), ops.Load(), srv.cpuTicks()
			p.windows = append(p.windows, window{seconds: t.Sub(lastT).Seconds(), ops: o - lastOps, cpuTicks: cpu - lastCPU})
			lastT, lastOps, lastCPU = t, o, cpu
		}
		stop.Store(true)
	}
	wg.Wait()
	for _, c := range cs {
		p.readNS = append(p.readNS, c.readNS...)
		p.txNS = append(p.txNS, c.txNS...)
	}
	slices.Sort(p.readNS)
	slices.Sort(p.txNS)
	return p
}
