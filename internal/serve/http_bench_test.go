package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/perfref"
	"repro/internal/wire"
)

// The HTTP push benchmarks close the measurement gap above the Manager:
// BenchmarkServePush stops at the manager boundary, these drive real
// requests through a live httptest server (TCP loopback, net/http
// serving stack, wire codec, manager). The client is a raw-socket
// harness — preassembled request bytes on a persistent connection,
// responses read into a reused buffer — so allocs/op is the server-side
// cost, not client churn. BenchmarkHTTPPush/codec=wire/batch=1 and
// BenchmarkHTTPPushHandler are wall-gated, and BenchmarkScaling sweeps
// the parallel workload across GOMAXPROCS.

// pushConn is the benchmark's raw HTTP/1.1 client: one keep-alive
// connection, hand-assembled requests, zero per-request allocation
// beyond the response scan.
type pushConn struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialPush(tb testing.TB, srv *httptest.Server) *pushConn {
	tb.Helper()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	return &pushConn{conn: conn, br: bufio.NewReaderSize(conn, 16<<10)}
}

// request assembles one complete POST request for path.
func pushRequest(path string, body []byte) []byte {
	return fmt.Appendf(nil, "POST %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		path, len(body), body)
}

// roundTrip writes a preassembled request and consumes the response,
// returning its status code. Small responses carry Content-Length;
// bodies past net/http's buffering threshold arrive chunked.
func (c *pushConn) roundTrip(req []byte) (int, error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, err
	}
	status := 0
	contentLength := -1
	for first := true; ; first = false {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if first {
			// "HTTP/1.1 200 OK" — the status is bytes 9-12.
			if len(line) < 12 {
				return 0, fmt.Errorf("short status line %q", line)
			}
			status = int(line[9]-'0')*100 + int(line[10]-'0')*10 + int(line[11]-'0')
			continue
		}
		if len(line) <= 2 { // bare CRLF: end of headers
			break
		}
		if len(line) > 16 && (line[0] == 'C' || line[0] == 'c') &&
			string(line[1:15]) == "ontent-Length:" {
			n, err := strconv.Atoi(string(bytes.TrimSpace(line[15:])))
			if err != nil {
				return 0, err
			}
			contentLength = n
		}
	}
	if contentLength >= 0 {
		if _, err := c.br.Discard(contentLength); err != nil {
			return 0, err
		}
		return status, nil
	}
	// Chunked transfer coding: size line, data + CRLF, until the zero
	// chunk and its terminating blank line.
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		size := 0
		for _, ch := range bytes.TrimSpace(line) {
			switch {
			case ch >= '0' && ch <= '9':
				size = size<<4 | int(ch-'0')
			case ch >= 'a' && ch <= 'f':
				size = size<<4 | int(ch-'a'+10)
			default:
				return 0, fmt.Errorf("bad chunk size line %q", line)
			}
		}
		if size == 0 {
			if _, err := c.br.Discard(2); err != nil { // trailing CRLF
				return 0, err
			}
			return status, nil
		}
		if _, err := c.br.Discard(size + 2); err != nil {
			return 0, err
		}
	}
}

func (c *pushConn) close() { c.conn.Close() }

// benchServer starts a server with an opened session per id and returns it.
func benchServer(tb testing.TB, ids []string) *httptest.Server {
	tb.Helper()
	m := NewManager(Options{MaxSessions: len(ids) + 1, Shards: 16})
	srv := httptest.NewServer(NewHandler(m))
	tb.Cleanup(srv.Close)
	for _, id := range ids {
		if _, err := m.Open(OpenRequest{ID: id, Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
			tb.Fatal(err)
		}
	}
	return srv
}

// traceBodies wire-encodes the quickstart trace as request bodies:
// batch=1 yields one single-slot object per slot, batch>1 yields array
// bodies of that many slots.
func traceBodies(tb testing.TB, batch int) [][]byte {
	tb.Helper()
	trace := quickstartTrace(tb)
	var bodies [][]byte
	if batch == 1 {
		for _, lambda := range trace {
			body, err := wire.AppendPushRequest(nil, &PushRequest{Lambda: lambda})
			if err != nil {
				tb.Fatal(err)
			}
			bodies = append(bodies, body)
		}
		return bodies
	}
	for start := 0; start < len(trace); start += batch {
		reqs := make([]PushRequest, 0, batch)
		for _, lambda := range trace[start:min(start+batch, len(trace))] {
			reqs = append(reqs, PushRequest{Lambda: lambda})
		}
		body, err := wire.AppendPushRequests(nil, reqs)
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// Wall-time gates (see perfref.Gate): ns/op over the reference task's,
// recorded on a 2-vCPU Xeon @ 2.1 GHz, Go 1.24, 2026-10-17.
const (
	httpPushRatio        = 0.0234
	httpPushHandlerRatio = 0.003372
)

// httpPush is BenchmarkHTTPPush's client: one long-lived session on a
// live server and the trace's requests for it, in batch-slot bodies.
type httpPush struct {
	conn *pushConn
	reqs [][]byte
	n    int
}

func newHTTPPush(tb testing.TB, batch int) *httpPush {
	srv := benchServer(tb, []string{"bench"})
	p := &httpPush{conn: dialPush(tb, srv)}
	tb.Cleanup(p.conn.close)
	for _, body := range traceBodies(tb, batch) {
		p.reqs = append(p.reqs, pushRequest("/v1/sessions/bench/push", body))
	}
	return p
}

// push sends the next request, the trace repeating.
func (p *httpPush) push() error {
	status, err := p.conn.roundTrip(p.reqs[p.n%len(p.reqs)])
	p.n++
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d", status)
	}
	return err
}

// BenchmarkHTTPPush measures one serial push request end to end —
// loopback TCP, net/http, codec, manager. One long-lived session absorbs
// all pushes (the trace repeats), so the op is the steady-state
// per-request cost: for batch=1 one slot per request, for batch=16 a
// 16-slot array. codec=wire/batch=1 is wall-gated.
func BenchmarkHTTPPush(b *testing.B) {
	b.Run("codec=wire", func(b *testing.B) {
		for _, batch := range []int{1, 16} {
			b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
				p := newHTTPPush(b, batch)
				op := func() {
					if err := p.push(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
				if batch == 1 {
					perfref.Gate(b, httpPushRatio, op)
				}
			})
		}
	})
}

// A push over loopback HTTP allocates no more objects, client and
// server together, than when the bound was set.
func TestHTTPPushAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	p := newHTTPPush(t, 1)
	a := testing.AllocsPerRun(2000, func() {
		if err := p.push(); err != nil {
			t.Fatal(err)
		}
	})
	if a > 29 {
		t.Fatalf("an HTTP push allocates %v end to end, want <= 29", a)
	}
}

// httpParallel is BenchmarkServePushParallel moved up to the HTTP
// layer: nSessions persistent sessions, each on its own keep-alive
// connection, and the trace's requests for each in batch-slot bodies.
type httpParallel struct {
	conns []*pushConn
	reqs  [][][]byte
}

func newHTTPParallel(tb testing.TB, batch int) *httpParallel {
	ids := make([]string, nSessions)
	for s := range ids {
		ids[s] = fmt.Sprintf("bench-%d", s)
	}
	srv := benchServer(tb, ids)
	bodies := traceBodies(tb, batch)
	p := &httpParallel{conns: make([]*pushConn, nSessions), reqs: make([][][]byte, nSessions)}
	for s := range p.conns {
		p.conns[s] = dialPush(tb, srv)
		tb.Cleanup(p.conns[s].close)
		for _, body := range bodies {
			p.reqs[s] = append(p.reqs[s], pushRequest("/v1/sessions/"+ids[s]+"/push", body))
		}
	}
	return p
}

// op drives the full trace through every session concurrently.
func (p *httpParallel) op() error {
	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for s := range p.conns {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, req := range p.reqs[s] {
				status, err := p.conns[s].roundTrip(req)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("HTTP %d", status)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// handlerPush calls a handler's ServeHTTP directly with a reused
// request and a discarding response writer, one trace slot per call.
type handlerPush struct {
	h      http.Handler
	bodies [][]byte
	rd     *bytes.Reader
	body   io.ReadCloser
	req    *http.Request
	w      *discardResponseWriter
	n      int
}

func newHandlerPush(tb testing.TB) *handlerPush {
	m := NewManager(Options{})
	if _, err := m.Open(OpenRequest{ID: "bench", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
		tb.Fatal(err)
	}
	p := &handlerPush{h: NewHandler(m), bodies: traceBodies(tb, 1), rd: bytes.NewReader(nil)}
	p.body = io.NopCloser(p.rd)
	req, err := http.NewRequest("POST", "/v1/sessions/bench/push", p.body)
	if err != nil {
		tb.Fatal(err)
	}
	p.req, p.w = req, &discardResponseWriter{header: make(http.Header, 4)}
	return p
}

func (p *handlerPush) push() error {
	b := p.bodies[p.n%len(p.bodies)]
	p.n++
	p.rd.Reset(b)
	p.req.Body = p.body
	p.req.ContentLength = int64(len(b))
	p.w.status = 0
	clear(p.w.header)
	p.h.ServeHTTP(p.w, p.req)
	if p.w.status != http.StatusOK {
		return fmt.Errorf("HTTP %d", p.w.status)
	}
	return nil
}

// BenchmarkHTTPPushHandler isolates the handler + codec from the
// network: ServeHTTP invoked directly with a reused request and a
// discarding response writer, so the codec's allocations are undiluted
// by the ~24 allocs/op of net/http connection machinery paid end to
// end. The sub-benchmark name matches BenchmarkHTTPPush's.
func BenchmarkHTTPPushHandler(b *testing.B) {
	b.Run("codec=wire", func(b *testing.B) {
		p := newHandlerPush(b)
		op := func() {
			if err := p.push(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
		perfref.Gate(b, httpPushHandlerRatio, op)
	})
}

// A push through the handler allocates no more objects than when the
// bound was set.
func TestHTTPPushHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	p := newHandlerPush(t)
	a := testing.AllocsPerRun(2000, func() {
		if err := p.push(); err != nil {
			t.Fatal(err)
		}
	})
	if a > 5 {
		t.Fatalf("a handler push allocates %v, want <= 5", a)
	}
}

type discardResponseWriter struct {
	header http.Header
	status int
}

func (w *discardResponseWriter) Header() http.Header         { return w.header }
func (w *discardResponseWriter) WriteHeader(status int)      { w.status = status }
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
