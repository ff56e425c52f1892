package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

// A span is one timed call at a layer boundary, recorded by the
// benchmark around a public seam of the system: the client round trip,
// the HTTP handler, and the snapshot-store and WAL-file calls the manager
// makes. Spans carry the session id they worked for; link derives each
// span's parent by time containment within its session (a session has at
// most one push in flight), and spans of one push share its client
// span's id as their trace id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Key    string `json:"session"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`         // End-Start minus the time children cover
	Bytes  int64  `json:"bytes,omitempty"` // store.save: snapshot size
}

// level orders span names from the outside in; a span's parent has a
// lower level.
func level(name string) int {
	switch name {
	case "client.push":
		return 0
	case "serve.http":
		return 1
	}
	return 2
}

// recorder keeps spans in memory while on. A nil recorder records nothing.
type recorder struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) span(name, key string, start, end time.Time) {
	r.spanBytes(name, key, start, end, 0)
}

func (r *recorder) spanBytes(name, key string, start, end time.Time, n int64) {
	if !r.enabled() {
		return
	}
	s := span{Name: name, Key: key, Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base)), Bytes: n}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// handler wraps the HTTP handler in a serve.http span.
func (r *recorder) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.enabled() {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		key, _, _ := strings.Cut(strings.TrimPrefix(req.URL.Path, "/v1/sessions/"), "/")
		r.span("serve.http", key, start, time.Now())
	})
}

// tracedStore times the manager's snapshot loads and saves.
type tracedStore struct {
	*serve.DirStore
	dir string
	rec *recorder
}

func (s tracedStore) Load(id string) (*serve.Snapshot, bool, error) {
	start := time.Now()
	snap, ok, err := s.DirStore.Load(id)
	s.rec.span("store.load", id, start, time.Now())
	return snap, ok, err
}

func (s tracedStore) Save(snap *serve.Snapshot) error {
	start := time.Now()
	err := s.DirStore.Save(snap)
	end := time.Now()
	if s.rec.enabled() {
		// DirStore keeps one <id>.json file per session.
		var size int64
		if fi, err := os.Stat(filepath.Join(s.dir, snap.ID+".json")); err == nil {
			size = fi.Size()
		}
		s.rec.spanBytes("store.save", snap.ID, start, end, size)
	}
	return err
}

// tracedFile times the WAL's writes and fsyncs; it is what the
// manager's WAL opens through serve.Options.WALOpenFile.
type tracedFile struct {
	*os.File
	key string
	rec *recorder
}

func (r *recorder) openWAL(path string) (wal.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, key: strings.TrimSuffix(filepath.Base(path), ".wal"), rec: r}, nil
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	f.rec.span("wal.write", f.key, start, time.Now())
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.rec.span("wal.sync", f.key, start, time.Now())
	return err
}

// link assigns ids, parents, trace ids and self times. Within a session a
// span's parent is the innermost earlier-starting, lower-level span that
// contains it.
func link(spans []span) {
	bySession := map[string][]int{}
	for i := range spans {
		spans[i].ID, spans[i].Parent, spans[i].Trace = i, -1, i
		bySession[spans[i].Key] = append(bySession[spans[i].Key], i)
	}
	covered := make([]int64, len(spans)) // per parent: child time so far
	reach := make([]int64, len(spans))   // per parent: end of the children seen
	for _, idx := range bySession {
		slices.SortFunc(idx, func(a, b int) int {
			sa, sb := &spans[a], &spans[b]
			return cmp.Or(cmp.Compare(sa.Start, sb.Start),
				cmp.Compare(level(sa.Name), level(sb.Name)),
				cmp.Compare(sb.End, sa.End))
		})
		var stack []int
		for _, i := range idx {
			s := &spans[i]
			for len(stack) > 0 {
				top := &spans[stack[len(stack)-1]]
				if top.End >= s.End && level(top.Name) < level(s.Name) {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				p := stack[len(stack)-1]
				s.Parent, s.Trace = p, spans[p].Trace
				// Children arrive in start order; count only the part of
				// each not already covered by an earlier sibling.
				from := max(s.Start, reach[p])
				if s.End > from {
					covered[p] += s.End - from
					reach[p] = s.End
				}
			}
			stack = append(stack, i)
		}
	}
	for i := range spans {
		spans[i].Self = spans[i].End - spans[i].Start - covered[i]
	}
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
