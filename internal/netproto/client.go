package netproto

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"
)

// Client is a reusable bpeserve client connection with the fault-tolerance
// policy built in: per-request deadlines, bounded reconnect on connection
// failure, and seed-deterministic jittered exponential backoff that retries
// retryable statuses (shed, deadline, busy) and gives up immediately on
// terminal ones.
//
// A Client drives one connection — one server-side session — and is not
// safe for concurrent use; give each worker its own.
//
// Reconnects are visible in Stats().Reconnects. Callers whose requests form
// a multi-frame sequence with server-side session state (update… commit)
// must check that counter around the sequence: a reconnect mid-sequence
// resets the server's per-connection transaction, so the whole sequence —
// not just the failed frame — needs re-sending.
type Client struct {
	cfg  ClientConfig
	conn net.Conn
	br   *bufio.Reader // over conn, so a response is one read; reset on reconnect
	rng  uint64        // splitmix64 state for backoff jitter

	frame []byte   // request header + data, so a request is one write (one TCP segment); reused
	resp  Response // scratch, reused across Do calls
	stats ClientStats
}

// ClientConfig configures a Client. Zero values take defaults.
type ClientConfig struct {
	// Addr is the server's TCP address. Required.
	Addr string
	// Deadline is the per-request server budget stamped into requests that
	// carry none of their own, and the bound on how long the client waits
	// for the response. 0 means no deadline.
	Deadline time.Duration
	// DialTimeout bounds one connection attempt. Default 2s.
	DialTimeout time.Duration
	// MaxRetries bounds how many times one Do re-sends after a retryable
	// status or a connection failure. Default 8.
	MaxRetries int
	// MaxReconnects bounds consecutive failed dials before the client
	// reports the server unreachable. Default 16.
	MaxReconnects int
	// BaseBackoff and MaxBackoff shape the jittered exponential backoff
	// between retries. Defaults 2ms and 250ms.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed makes the backoff jitter sequence deterministic; 0 becomes 1.
	Seed uint64
}

// ClientStats counts what the retry policy did.
type ClientStats struct {
	Ops        int64 // Do calls that returned a response
	Retries    int64 // re-sends after a retryable status or connection failure
	Sheds      int64 // StatusShed responses seen (including retried ones)
	Deadlines  int64 // StatusDeadline responses seen
	Busy       int64 // StatusBusy responses seen
	Reconnects int64 // connections re-established after a failure
}

func (cfg *ClientConfig) defaults() {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 8
	}
	if cfg.MaxReconnects <= 0 {
		cfg.MaxReconnects = 16
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 2 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 250 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
}

// ErrUnreachable reports that the reconnect budget was exhausted without
// establishing a connection.
var ErrUnreachable = errors.New("netproto: server unreachable (reconnect budget exhausted)")

// ErrRetriesExhausted reports that every retry of a request came back with
// a retryable status; the last status is attached as text.
var ErrRetriesExhausted = errors.New("netproto: retries exhausted")

// Dial connects a new Client, retrying the initial dial within the
// reconnect budget.
func Dial(cfg ClientConfig) (*Client, error) {
	cfg.defaults()
	c := &Client{cfg: cfg, rng: cfg.Seed, br: bufio.NewReader(nil)}
	if err := c.reconnect(); err != nil {
		return nil, err
	}
	return c, nil
}

// rand is one splitmix64 step: the deterministic jitter source.
func (c *Client) rand() uint64 {
	c.rng += 0x9E3779B97F4A7C15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// backoff sleeps the jittered exponential delay for the given attempt:
// uniformly between 50% and 100% of min(MaxBackoff, BaseBackoff<<attempt).
func (c *Client) backoff(attempt int) {
	d := c.cfg.BaseBackoff << uint(attempt)
	if d <= 0 || d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	half := d / 2
	jit := time.Duration(c.rand() % uint64(half+1))
	time.Sleep(half + jit)
}

// reconnect re-establishes the connection, retrying with backoff within
// the reconnect budget.
func (c *Client) reconnect() error {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	var lastErr error
	for i := 0; i < c.cfg.MaxReconnects; i++ {
		conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
		if err == nil {
			c.conn = conn
			c.br.Reset(conn) // drops whatever the dead connection left unread
			return nil
		}
		lastErr = err
		c.backoff(i)
	}
	return fmt.Errorf("%w: %v", ErrUnreachable, lastErr)
}

// Do sends req and returns the response. Retryable statuses and connection
// failures are retried with backoff (reconnecting as needed) up to
// MaxRetries; terminal statuses and successes return immediately. The
// returned Response is valid until the next Do call on this client.
func (c *Client) Do(req *Request) (*Response, error) {
	if req.DeadlineMS == 0 && c.cfg.Deadline > 0 {
		req.DeadlineMS = uint32(c.cfg.Deadline / time.Millisecond)
	}
	var lastStatus byte
	for attempt := 0; ; attempt++ {
		resp, err := c.roundTrip(req)
		if err == nil {
			if !Retryable(resp.Status) {
				c.stats.Ops++
				return resp, nil
			}
			lastStatus = resp.Status
			switch resp.Status {
			case StatusShed:
				c.stats.Sheds++
			case StatusDeadline:
				c.stats.Deadlines++
			case StatusBusy:
				c.stats.Busy++
			}
		} else {
			// Connection failure: the server died, dropped us, or the
			// response never arrived in time. Reconnect within budget.
			if rerr := c.reconnect(); rerr != nil {
				return nil, rerr
			}
			c.stats.Reconnects++
		}
		if attempt >= c.cfg.MaxRetries {
			if err != nil {
				return nil, fmt.Errorf("netproto: request failed after %d attempts: %w", attempt+1, err)
			}
			return nil, fmt.Errorf("%w (last status %d)", ErrRetriesExhausted, lastStatus)
		}
		c.stats.Retries++
		c.backoff(attempt)
	}
}

// roundTrip writes one request and reads one response over the current
// connection, arming the socket deadline from the request's budget.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	if c.conn == nil {
		return nil, errors.New("netproto: not connected")
	}
	if req.DeadlineMS > 0 {
		// The socket deadline is the server budget plus slack for the
		// network and scheduling, so a live server gets the full budget
		// to answer StatusDeadline itself before we cut the connection.
		slack := time.Duration(req.DeadlineMS)*time.Millisecond + c.cfg.DialTimeout
		c.conn.SetDeadline(time.Now().Add(slack))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	hdr, err := req.header()
	if err != nil {
		return nil, err
	}
	c.frame = append(append(c.frame[:0], hdr...), req.Data...)
	if _, err := c.conn.Write(c.frame); err != nil {
		return nil, err
	}
	if err := ReadResponse(c.br, &c.resp); err != nil {
		return nil, err
	}
	return &c.resp, nil
}

// Get reads page pid. The returned payload is valid until the next call.
func (c *Client) Get(pid int64) ([]byte, error) {
	resp, err := c.Do(&Request{Op: OpGet, Page: pid})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, fmt.Errorf("netproto: get page %d: %s", pid, resp.Data)
	}
	return resp.Data, nil
}

// Health probes the server: true while it accepts work, false (with no
// error) while it is shedding or draining.
func (c *Client) Health() (bool, error) {
	resp, err := c.roundTrip(&Request{Op: OpHealth, DeadlineMS: uint32(c.cfg.DialTimeout / time.Millisecond)})
	if err != nil {
		return false, err
	}
	return resp.Status == StatusOK, nil
}

// ServerStats fetches the server's counter snapshot.
func (c *Client) ServerStats() (string, error) {
	resp, err := c.Do(&Request{Op: OpStats})
	if err != nil {
		return "", err
	}
	if resp.Status != StatusOK {
		return "", fmt.Errorf("netproto: stats: %s", resp.Data)
	}
	return string(resp.Data), nil
}

// Stats returns the retry-policy counters so far.
func (c *Client) Stats() ClientStats { return c.stats }

// Close closes the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
