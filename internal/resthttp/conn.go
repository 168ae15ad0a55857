package resthttp

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/csp"
)

// The connector's HTTP/1.1 client. Every call of the protocol is one request
// whose body, if any, is already a byte slice, and one response the caller
// reads to its end, so a round trip needs no goroutine of its own: the
// request head and body leave in one writev, and the response is parsed on
// the caller's goroutine by http.ReadResponse, the standard library's own
// parser. Connections are kept alive in the Store's pool; a connection goes
// back into it only once its response body was read to EOF.
//
// Departures from net/http's client, none of which the protocol uses: no
// HTTP/2, no proxy from the environment, no redirects, no compression.

// maxHeadBytes bounds a response head (status line and headers): a provider
// cannot make the connector buffer an endless one.
const maxHeadBytes = 1 << 20

// aLongTimeAgo is a deadline already past: setting it unblocks any read or
// write on the connection at once.
var aLongTimeAgo = time.Unix(1, 0)

// conn is one kept-alive connection to the provider.
type conn struct {
	nc     net.Conn
	lr     io.LimitedReader // under br: capped while a response head is read
	br     *bufio.Reader
	head   []byte      // the request head, rebuilt in place for each request
	vec    [2][]byte   // head and body
	bufs   net.Buffers // the writev's view of vec, consumed as it is written
	reused bool        // it carried a request before this one
}

// endpoint is what a Store needs of its base URL to dial and address the
// provider.
type endpoint struct {
	addr   string      // host:port to dial
	host   string      // the Host header
	prefix string      // the base URL's path, before every request path
	tls    *tls.Config // nil for http://
}

func parseEndpoint(baseURL string) (endpoint, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return endpoint{}, err
	}
	if u.Host == "" || u.User != nil || u.RawQuery != "" || u.Fragment != "" {
		return endpoint{}, fmt.Errorf("base URL %q: want scheme://host[:port][/path]", baseURL)
	}
	ep := endpoint{host: u.Host, prefix: u.EscapedPath()}
	port := u.Port()
	switch u.Scheme {
	case "http":
		if port == "" {
			port = "80"
		}
	case "https":
		if port == "" {
			port = "443"
		}
		ep.tls = &tls.Config{ServerName: u.Hostname()}
	default:
		return endpoint{}, fmt.Errorf("base URL %q: unsupported scheme %q", baseURL, u.Scheme)
	}
	ep.addr = net.JoinHostPort(u.Hostname(), port)
	return ep, nil
}

// validToken reports whether a bearer token can go in a header line as is.
func validToken(token string) bool {
	for i := 0; i < len(token); i++ {
		if b := token[i]; b < ' ' || b == 0x7f {
			return false
		}
	}
	return true
}

// errNoAnswer marks a request that failed before the provider sent a byte of
// its answer.
var errNoAnswer = errors.New("no response")

// roundTrip sends one request and returns the response with its head read.
// The caller closes resp.Body. A request that failed on a kept-alive
// connection before any byte of an answer arrived is sent again, once, on a
// new connection: the provider may have dropped the idle socket, and the
// body is a byte slice, so it can be sent twice.
func (s *Store) roundTrip(ctx context.Context, method, path, token string, body []byte) (*http.Response, error) {
	if s.epErr != nil {
		return nil, s.unavailable(ctx, s.epErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, s.unavailable(ctx, err)
	}
	c := s.idleConn()
	for {
		if c == nil {
			var err error
			if c, err = s.dial(ctx); err != nil {
				return nil, s.unavailable(ctx, err)
			}
		}
		resp, err := s.exchange(ctx, c, method, path, token, body)
		if err == nil {
			return resp, nil
		}
		if !c.reused || !errors.Is(err, errNoAnswer) || ctx.Err() != nil {
			return nil, s.unavailable(ctx, err)
		}
		c = nil
	}
}

// unavailable wraps a transport failure as a provider fault. A call its own
// context ended is not one: it returns an error matching the context's, so
// a hedge or race loser its gather cancelled does not count against the
// provider.
func (s *Store) unavailable(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("%s: %w", s.name, ctxErr)
	}
	return fmt.Errorf("%w: %s: %v", csp.ErrUnavailable, s.name, err)
}

func (s *Store) idleConn() *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.idle)
	if n == 0 {
		return nil
	}
	c := s.idle[n-1]
	s.idle[n-1] = nil
	s.idle = s.idle[:n-1]
	return c
}

func (s *Store) putIdle(c *conn) {
	c.reused = true
	s.mu.Lock()
	s.idle = append(s.idle, c)
	s.mu.Unlock()
}

func (s *Store) dial(ctx context.Context) (*conn, error) {
	var nc net.Conn
	var err error
	if s.ep.tls != nil {
		nc, err = (&tls.Dialer{Config: s.ep.tls}).DialContext(ctx, "tcp", s.ep.addr)
	} else {
		nc, err = (&net.Dialer{}).DialContext(ctx, "tcp", s.ep.addr)
	}
	if err != nil {
		return nil, err
	}
	c := &conn{nc: nc, lr: io.LimitedReader{R: nc}}
	c.br = bufio.NewReader(&c.lr)
	return c, nil
}

// exchange writes one request on c and reads the response head. On error c
// is closed, and the error wraps errNoAnswer if no byte of a response came.
func (s *Store) exchange(ctx context.Context, c *conn, method, path, token string, body []byte) (*http.Response, error) {
	stop := noStop
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { _ = c.nc.SetDeadline(aLongTimeAgo) })
	}
	fail := func(err error) (*http.Response, error) {
		stop()
		c.nc.Close()
		return nil, err
	}

	c.head = appendHead(c.head[:0], method, s.ep.prefix, path, s.ep.host, token, body)
	c.vec = [2][]byte{c.head, body}
	c.bufs = c.vec[:]
	_, werr := c.bufs.WriteTo(c.nc)
	c.vec[1] = nil // a pooled connection must not pin the caller's body
	// Read even after a failed write: a provider that refused the request
	// before reading all of it (a bad token on a large upload) may have
	// answered, and its answer is the better error.
	c.lr.N = maxHeadBytes
	if _, err := c.br.Peek(1); err != nil {
		if werr != nil {
			err = werr
		}
		return fail(fmt.Errorf("%w: %v", errNoAnswer, err))
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return fail(err)
	}
	c.lr.N = math.MaxInt64
	resp.Body = &respBody{s: s, c: c, ctx: ctx, stop: stop, r: resp.Body, keep: werr == nil && !resp.Close}
	return resp, nil
}

func noStop() bool { return true }

// appendHead appends the request line and headers of one request.
func appendHead(dst []byte, method, prefix, path, host, token string, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, prefix...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, host...)
	dst = append(dst, "\r\nAuthorization: Bearer "...)
	dst = append(dst, token...)
	if method == http.MethodPut || method == http.MethodPost {
		dst = append(dst, "\r\nContent-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
	}
	return append(dst, "\r\n\r\n"...)
}

// respBody is a response body that hands its connection back to the pool
// when closed after being read to EOF, and closes it otherwise: a body left
// unread or cut short, a response that asked to close, a cancelled call, or
// bytes past the end of the response.
type respBody struct {
	s    *Store
	c    *conn // nil once closed
	ctx  context.Context
	stop func() bool // unbinds ctx from c; false if ctx already fired
	r    io.Reader
	err  error // the first error r returned: io.EOF for a clean end
	keep bool
}

func (b *respBody) Read(p []byte) (int, error) {
	if b.c == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	n, err := b.r.Read(p)
	if err != nil {
		if err != io.EOF && b.ctx.Err() != nil {
			err = b.ctx.Err()
		}
		if b.err == nil {
			b.err = err
		}
	}
	return n, err
}

func (b *respBody) Close() error {
	c := b.c
	if c == nil {
		return nil
	}
	b.c = nil
	if b.stop() && b.err == io.EOF && b.keep && c.br.Buffered() == 0 {
		b.s.putIdle(c)
		return nil
	}
	return c.nc.Close()
}
