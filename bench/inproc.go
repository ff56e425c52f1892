package main

import (
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

// inproc is the traced run's system under test: the daemon's manager and
// handler, built in this process with the workload's options, served on a
// loopback listener. Only public seams are used, so the store and WAL
// calls can be timed from outside (see trace.go).
type inproc struct {
	m       *serve.Manager
	srv     *http.Server
	addr    string
	served  chan error
	stopJan chan struct{}
	janDone chan struct{}
}

func startInproc(w workload, dir string, rec *recorder) (*inproc, error) {
	opts := serve.Options{MaxSessions: 2 * w.sessions}
	if w.evict > 0 {
		snaps := filepath.Join(dir, "snapshots")
		ds, err := serve.NewDirStore(snaps)
		if err != nil {
			return nil, err
		}
		opts.Store = tracedStore{DirStore: ds, dir: snaps, rec: rec}
	}
	if w.wal {
		opts.WALDir = filepath.Join(dir, "wal")
		if err := os.MkdirAll(opts.WALDir, 0o755); err != nil {
			return nil, err
		}
		opts.WALSync = wal.SyncAlways
		opts.WALOpenFile = rec.openWAL
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &inproc{m: serve.NewManager(opts), addr: ln.Addr().String(), served: make(chan error, 1)}
	s.srv = &http.Server{Handler: rec.handler(serve.NewHandler(s.m))}
	go func() { s.served <- s.srv.Serve(ln) }()
	if w.evict > 0 {
		// The daemon's idle janitor, through the same Manager call.
		s.stopJan, s.janDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(s.janDone)
			tick := time.NewTicker(w.evict / 4)
			defer tick.Stop()
			for {
				select {
				case <-s.stopJan:
					return
				case <-tick.C:
					// A failed save leaves its session live; the resume
					// assertion of the gate reports that.
					_, _ = s.m.EvictIdle(w.evict)
				}
			}
		}()
	}
	return s, nil
}

func (s *inproc) close() error {
	if s.stopJan != nil {
		close(s.stopJan)
		<-s.janDone
	}
	err := s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if merr := s.m.Close(); err == nil {
		err = merr
	}
	return err
}
