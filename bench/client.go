package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"syscall"
)

// conn is one keep-alive HTTP/1.1 connection to the server under test.
// The load generator owns one per worker, so the number of connections
// is the number of workers. Requests are written with a single write and
// responses parsed into a reused buffer, so the client's own cost per
// push stays small and the same on every commit.
//
// The socket is a plain blocking one, read and written by the calling
// thread: a worker waiting for its response is woken by the kernel
// directly, not through the Go netpoller and a handoff to its locked
// thread (see pace), which took tens of microseconds more per push.
type conn struct {
	addr string
	fd   sockFD
	open bool
	br   *bufio.Reader
	req  []byte
	body bytes.Buffer
}

func newConn(addr string) *conn { return &conn{addr: addr} }

func (c *conn) close() {
	if c.open {
		c.fd.Close()
		c.open = false
	}
}

// do sends one request and returns the status and the response body,
// which stays valid until the next call. Any transport error closes the
// connection; the next call redials.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	c.queue(method, path, body)
	if err := c.flush(); err != nil {
		return 0, nil, err
	}
	return c.recv()
}

// queue adds one request to those flush sends next. Requests queued
// together are pipelined: the server answers them in order.
func (c *conn) queue(method, path string, body []byte) {
	c.req = append(c.req, method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: rightsized\r\n"...)
	if body != nil {
		c.req = append(c.req, "Content-Type: application/json\r\nContent-Length: "...)
		c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
		c.req = append(c.req, "\r\n"...)
	}
	c.req = append(c.req, "\r\n"...)
	c.req = append(c.req, body...)
}

// flush sends the queued requests in one write, dialling first if the
// connection is closed.
func (c *conn) flush() error {
	defer func() { c.req = c.req[:0] }()
	if !c.open {
		fd, err := dial(c.addr)
		if err != nil {
			return err
		}
		c.fd, c.open = fd, true
		c.br = bufio.NewReaderSize(fd, 64<<10)
	}
	if _, err := c.fd.Write(c.req); err != nil {
		c.close()
		return err
	}
	return nil
}

// recv reads the response to the oldest request not yet answered.
func (c *conn) recv() (int, []byte, error) {
	status, keep, err := c.readResponse()
	if err != nil || !keep {
		c.close()
	}
	return status, c.body.Bytes(), err
}

var errMalformed = errors.New("malformed HTTP response")

// readResponse parses a status line, headers, and a Content-Length or
// chunked body.
func (c *conn) readResponse() (status int, keep bool, err error) {
	c.body.Reset()
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, false, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, false, errMalformed
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, false, errMalformed
	}
	length, chunked, keep := -1, false, true
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return 0, false, errMalformed
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil {
				return 0, false, errMalformed
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			keep = !bytes.EqualFold(value, []byte("close"))
		}
	}
	switch {
	case chunked:
		for {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return 0, false, err
			}
			size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 64)
			if err != nil {
				return 0, false, errMalformed
			}
			if size == 0 {
				_, err := c.br.Discard(2)
				return status, keep, err
			}
			if _, err := io.CopyN(&c.body, c.br, size); err != nil {
				return 0, false, err
			}
			if _, err := c.br.Discard(2); err != nil {
				return 0, false, err
			}
		}
	case length >= 0:
		_, err := io.CopyN(&c.body, c.br, int64(length))
		return status, keep, err
	default:
		return 0, false, fmt.Errorf("response with neither a length nor chunks")
	}
}

// sockFD is a blocking TCP socket.
type sockFD int

// ioTimeout bounds every read and write, so a wedged server fails the run
// instead of hanging it.
var ioTimeout = syscall.NsecToTimeval(30e9)

// dial connects to an IPv4 host:port with a blocking socket.
func dial(addr string) (sockFD, error) {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil || !ap.Addr().Is4() {
		return -1, fmt.Errorf("dial %s: want an IPv4 address and port", addr)
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return -1, fmt.Errorf("dial %s: %w", addr, err)
	}
	sa := &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ap.Addr().As4()}
	for _, opt := range []int{syscall.SO_RCVTIMEO, syscall.SO_SNDTIMEO} {
		if err == nil {
			err = syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, opt, &ioTimeout)
		}
	}
	if err == nil {
		err = syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	}
	if err == nil {
		err = syscall.Connect(fd, sa)
	}
	if err != nil {
		syscall.Close(fd)
		return -1, fmt.Errorf("dial %s: %w", addr, err)
	}
	return sockFD(fd), nil
}

func (f sockFD) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(int(f), p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (f sockFD) Write(p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := syscall.Write(int(f), p[total:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

func (f sockFD) Close() error { return syscall.Close(int(f)) }
