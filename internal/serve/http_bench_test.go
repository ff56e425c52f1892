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

	"repro/internal/wire"
)

// The HTTP push benchmarks close the measurement gap above the Manager:
// BenchmarkServePush stops at the manager boundary, these drive real
// requests through a live httptest server (TCP loopback, net/http
// serving stack, wire codec, manager). The client is a raw-socket
// harness — preassembled request bytes on a persistent connection,
// responses read into a reused buffer — so allocs/op is the server-side
// cost, not client churn; BenchmarkHTTPPush/codec=wire is gated by
// scripts/benchsmoke.sh against BENCH_serve.json and the parallel
// variant is swept across -cpu by scripts/benchscale.sh.

// pushConn is the benchmark's raw HTTP/1.1 client: one keep-alive
// connection, hand-assembled requests, zero per-request allocation
// beyond the response scan.
type pushConn struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialPush(b *testing.B, srv *httptest.Server) *pushConn {
	b.Helper()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		b.Fatal(err)
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
func benchServer(b *testing.B, ids []string) *httptest.Server {
	b.Helper()
	m := NewManager(Options{MaxSessions: len(ids) + 1, Shards: 16})
	srv := httptest.NewServer(NewHandler(m))
	b.Cleanup(srv.Close)
	for _, id := range ids {
		if _, err := m.Open(OpenRequest{ID: id, Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
			b.Fatal(err)
		}
	}
	return srv
}

// traceBodies wire-encodes the quickstart trace as request bodies:
// batch=1 yields one single-slot object per slot, batch>1 yields array
// bodies of that many slots.
func traceBodies(b *testing.B, batch int) [][]byte {
	b.Helper()
	trace := quickstartTrace(b)
	var bodies [][]byte
	if batch == 1 {
		for _, lambda := range trace {
			body, err := wire.AppendPushRequest(nil, &PushRequest{Lambda: lambda})
			if err != nil {
				b.Fatal(err)
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
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// BenchmarkHTTPPush measures one serial push request end to end —
// loopback TCP, net/http, codec, manager. One long-lived session absorbs
// all pushes (the trace repeats), so the op is the steady-state
// per-request cost: for batch=1 one slot per request, for batch=16 a
// 16-slot array. The codec=wire level keeps the names BENCH_serve.json
// records (its "previous" blocks are the encoding/json codec this
// replaced); codec=wire/batch=1 is gated by scripts/benchsmoke.sh.
func BenchmarkHTTPPush(b *testing.B) {
	b.Run("codec=wire", func(b *testing.B) {
		for _, batch := range []int{1, 16} {
			b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
				srv := benchServer(b, []string{"bench"})
				reqs := make([][]byte, 0, 48)
				for _, body := range traceBodies(b, batch) {
					reqs = append(reqs, pushRequest("/v1/sessions/bench/push", body))
				}
				conn := dialPush(b, srv)
				defer conn.close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					status, err := conn.roundTrip(reqs[i%len(reqs)])
					if err != nil {
						b.Fatal(err)
					}
					if status != http.StatusOK {
						b.Fatalf("HTTP %d", status)
					}
				}
			})
		}
	})
}

// BenchmarkHTTPPushParallel is BenchmarkServePushParallel moved up to
// the HTTP layer: 16 persistent sessions on 16 keep-alive connections,
// each op drives the full 48-slot trace through every session
// concurrently (768 slots per op, matching scripts/benchscale.sh's
// -slots), unbatched and in 16-slot batches.
func BenchmarkHTTPPushParallel(b *testing.B) {
	const nSessions = 16
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			ids := make([]string, nSessions)
			for s := range ids {
				ids[s] = fmt.Sprintf("bench-%d", s)
			}
			srv := benchServer(b, ids)
			bodies := traceBodies(b, batch)
			conns := make([]*pushConn, nSessions)
			reqs := make([][][]byte, nSessions)
			for s := range conns {
				conns[s] = dialPush(b, srv)
				defer conns[s].close()
				for _, body := range bodies {
					reqs[s] = append(reqs[s], pushRequest("/v1/sessions/"+ids[s]+"/push", body))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make(chan error, nSessions)
				for s := 0; s < nSessions; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						for _, req := range reqs[s] {
							status, err := conns[s].roundTrip(req)
							if err != nil {
								errs <- err
								return
							}
							if status != http.StatusOK {
								errs <- fmt.Errorf("HTTP %d", status)
								return
							}
						}
					}(s)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHTTPPushHandler isolates the handler + codec from the
// network: ServeHTTP invoked directly with a reused request and a
// discarding response writer, so the codec's allocations are undiluted
// by the ~24 allocs/op of net/http connection machinery paid end to
// end. This is where the push path's allocs/op is gated; the sub-
// benchmark name matches BenchmarkHTTPPush's.
func BenchmarkHTTPPushHandler(b *testing.B) {
	b.Run("codec=wire", func(b *testing.B) {
		m := NewManager(Options{})
		if _, err := m.Open(OpenRequest{ID: "bench", Alg: "alg-b", Fleet: quickstartFleet()}); err != nil {
			b.Fatal(err)
		}
		h := NewHandler(m)
		bodies := traceBodies(b, 1)
		rd := bytes.NewReader(nil)
		body := io.NopCloser(rd)
		req, err := http.NewRequest("POST", "/v1/sessions/bench/push", body)
		if err != nil {
			b.Fatal(err)
		}
		w := &discardResponseWriter{header: make(http.Header, 4)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(bodies[i%len(bodies)])
			req.Body = body
			req.ContentLength = int64(len(bodies[i%len(bodies)]))
			w.status = 0
			clear(w.header)
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				b.Fatalf("HTTP %d", w.status)
			}
		}
	})
}

type discardResponseWriter struct {
	header http.Header
	status int
}

func (w *discardResponseWriter) Header() http.Header         { return w.header }
func (w *discardResponseWriter) WriteHeader(status int)      { w.status = status }
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
