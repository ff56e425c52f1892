// Command rightsized is the right-sizing advisory daemon: it serves many
// concurrent live sessions over an HTTP JSON API, multiplexing the
// streaming core (internal/stream) behind internal/serve's session
// manager.
//
// Usage:
//
//	rightsized [-addr :8080] [-max-sessions 256] [-idle-evict 10m]
//	           [-snapshot-dir DIR] [-wal-dir DIR] [-wal-sync always]
//	           [-wal-sync-interval 100ms] [-shards N]
//	           [-rate N] [-burst N] [-session-rate N] [-session-burst N]
//	           [-max-inflight N] [-push-deadline D] [-drain-timeout 30s]
//	           [-stream-buffer N] [-stream-heartbeat 15s]
//
// Endpoints (see the README's "Serving" section for curl examples):
//
//	POST   /v1/sessions                 open a session {"alg": "...", "fleet": {...}}
//	GET    /v1/sessions                 list live sessions
//	GET    /v1/sessions/{id}            session state
//	POST   /v1/sessions/{id}/push       feed one slot {"lambda": 7.5} or a JSON array of slots
//	POST   /v1/sessions/{id}/checkpoint persist + return the session snapshot
//	DELETE /v1/sessions/{id}            close the session
//	GET    /v1/sessions/{id}/stream     live advisory stream (Server-Sent Events)
//	GET    /v1/algs                     the algorithm registry
//	GET    /v1/healthz                  liveness + aggregate counters
//	GET    /metrics                     Prometheus text exposition
//
// The stream endpoint pushes every advisory the session decides as an
// SSE event the moment it exists; -stream-buffer bounds each
// subscriber's backlog (a consumer that falls further behind is
// disconnected with an "end" event, reason "lagged") and
// -stream-heartbeat paces comment keepalives through idle stretches.
// /metrics exports the same counters as /v1/healthz plus per-shard
// occupancy, stream subscriptions, solver memo hit rates, and the full
// push-latency histogram; see the README's "Observability" section.
//
// Sessions idle longer than -idle-evict are checkpointed to the snapshot
// store (-snapshot-dir for on-disk JSON, in-memory otherwise) and
// transparently resumed by their next push. On SIGINT/SIGTERM the daemon
// drains in-flight requests and checkpoints every live session, so with
// -snapshot-dir a restart resumes exactly where it stopped; -drain-timeout
// bounds the whole drain, abandoning stragglers rather than hanging
// shutdown on a wedged store.
//
// -wal-dir additionally write-ahead-logs every accepted slot before the
// algorithm sees it, closing the crash window a graceful drain cannot:
// after a SIGKILL or power cut the next start scans the WAL dir, rebuilds
// each session as snapshot + log delta, and re-checkpoints it — with
// -wal-sync always, no acknowledged slot is ever lost. -wal-sync interval
// groups fsyncs at -wal-sync-interval; -wal-sync never leaves durability
// to the page cache (survives process death, not power loss). See the
// README's "Durability" section for the full survives-what matrix.
//
// Overload control (see the README's "Reliability" section): -rate/-burst
// bound admitted slots/sec globally, -session-rate/-session-burst per
// session, and -max-inflight caps concurrent pushes. Requests beyond a
// limit are shed with 429/503 and a Retry-After header. -push-deadline
// bounds each push end to end, answering 504 instead of stalling.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rightsized: ")

	addr := flag.String("addr", ":8080", "listen address")
	maxSessions := flag.Int("max-sessions", 256, "live session limit (evicted snapshots don't count)")
	idleEvict := flag.Duration("idle-evict", 10*time.Minute, "evict sessions idle this long (0 disables the janitor)")
	snapshotDir := flag.String("snapshot-dir", "", "persist evicted sessions as JSON here (default: in-memory)")
	walDir := flag.String("wal-dir", "", "write-ahead-log every accepted slot here; recovered on startup (default: off)")
	walSync := flag.String("wal-sync", "always", "WAL append durability: always | interval | never")
	walSyncInterval := flag.Duration("wal-sync-interval", wal.DefaultSyncInterval, "fsync cadence for -wal-sync interval; idle logs are swept on it too")
	shards := flag.Int("shards", 0, "session registry lock stripes, rounded up to a power of two (0 = one per CPU)")
	rate := flag.Float64("rate", 0, "admitted slots/sec across all sessions, shed with 429 beyond (0 = unlimited)")
	burst := flag.Int("burst", 0, "global rate-limit burst capacity (0 = one second of -rate)")
	sessionRate := flag.Float64("session-rate", 0, "admitted slots/sec per session (0 = unlimited)")
	sessionBurst := flag.Int("session-burst", 0, "per-session burst capacity (0 = one second of -session-rate)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent push budget, shed with 503 beyond (0 = unlimited)")
	pushDeadline := flag.Duration("push-deadline", 0, "per-push deadline, answered with 504 past it (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "overall shutdown-drain deadline; stragglers are logged and abandoned (0 = wait forever)")
	streamBuffer := flag.Int("stream-buffer", 0, "per-subscriber advisory backlog before a lagging stream is dropped (0 = 256)")
	streamHeartbeat := flag.Duration("stream-heartbeat", 0, "SSE keepalive comment cadence on idle streams (0 = 15s)")
	flag.Parse()

	opts := serve.Options{
		MaxSessions: *maxSessions, Shards: *shards,
		GlobalRate: *rate, GlobalBurst: *burst,
		SessionRate: *sessionRate, SessionBurst: *sessionBurst,
		MaxInFlight: *maxInflight, PushDeadline: *pushDeadline,
		StreamBuffer: *streamBuffer, StreamHeartbeat: *streamHeartbeat,
	}
	if *snapshotDir != "" {
		store, err := serve.NewDirStore(*snapshotDir)
		if err != nil {
			log.Fatal(err)
		}
		opts.Store = store
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			log.Fatal(err)
		}
		opts.WALDir = *walDir
		opts.WALSync = policy
		opts.WALSyncInterval = *walSyncInterval
	}
	m := serve.NewManager(opts)

	// Fold crash residue back into the snapshot store before any traffic:
	// every leftover WAL becomes a resumable snapshot (or is quarantined).
	if *walDir != "" {
		rep, err := m.RecoverWAL()
		if err != nil {
			log.Fatalf("wal recovery: %v", err)
		}
		if rep.Sessions > 0 || rep.Corrupt > 0 || rep.TornTails > 0 || len(rep.Failed) > 0 {
			log.Printf("wal recovery: %s", rep)
		}
		for _, id := range rep.Failed {
			log.Printf("wal recovery: session %q failed; log kept for the next start", id)
		}
	}

	// The janitor turns the idle-evict policy into store traffic: every
	// quarter period it sheds sessions whose last push is at least one
	// period old, bounding resident algorithm state by activity, not by
	// session count.
	stopJanitor := make(chan struct{})
	if *idleEvict > 0 {
		go func() {
			tick := time.NewTicker(max(*idleEvict/4, time.Second))
			defer tick.Stop()
			for {
				select {
				case <-stopJanitor:
					return
				case <-tick.C:
					if n, err := m.EvictIdle(*idleEvict); err != nil {
						log.Printf("idle eviction: %v", err)
					} else if n > 0 {
						log.Printf("evicted %d idle session(s)", n)
						// Eviction exists to shed resident state, so hand
						// it back now. Left to the pacer, the heap keeps
						// the goal of its busiest moment until allocation
						// catches up, and resumes that restore from state
						// allocate too little to catch up for most of a
						// minute. The janitor ticks at most once a second.
						debug.FreeOSMemory()
					}
				}
			}
		}()
	}

	srv := &http.Server{Addr: *addr, Handler: serve.NewHandler(m)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on %s (max %d sessions, idle-evict %v)", *addr, *maxSessions, *idleEvict)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Print("shutting down")
	close(stopJanitor)

	// One deadline bounds the whole drain — in-flight HTTP requests plus
	// the checkpoint of every live session. Without it a single wedged
	// store write would block shutdown forever; with it stragglers are
	// logged and abandoned (a durable store still resumes every session
	// that did checkpoint).
	drainCtx := context.Background()
	if *drainTimeout > 0 {
		var cancel context.CancelFunc
		drainCtx, cancel = context.WithTimeout(drainCtx, *drainTimeout)
		defer cancel()
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			log.Printf("checkpointing live sessions: %v", err)
		}
	case <-drainCtx.Done():
		log.Printf("drain timeout %v elapsed; abandoning %d unsaved session(s)",
			*drainTimeout, m.Metrics().LiveSessions)
	}
	met := m.Metrics()
	log.Printf("served %d slots across %d sessions (%d resumed, %d evicted)",
		met.SlotsPushed, met.SessionsOpened, met.SessionsResumed, met.SessionsEvicted)
}
