package main

import (
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The shared machine the benchmark runs on gives the daemon's CPU two
// speeds for code like the daemon's (JSON, maps, a garbage-collected
// heap), and switches between them every few seconds: the same set-up or
// the same slot took 1.6 to 1.8 times as long in the slow state, and
// which state a set of runs met moved its median set-up time by up to a
// third. A fixed reference task timed on the same CPU, in between the
// daemon's work, slows down with it: timed alternately with a checkpoint
// replay and a solver loop, its time correlated with theirs at 0.94-0.98,
// and the ratio spread a quarter as much as their times. The untraced run
// therefore times that task throughout, and reports set-up time and CPU
// time per slot scaled to the speed at which one round of it takes
// refNominal. A CPU-bound reference (integer arithmetic) barely moved
// with the slow state; the task has to resemble the daemon's work.
// bench/README.md has the measurements.

// refRecord is what the reference task encodes and decodes: about the
// shape of a session's slot history on the wire. It belongs to the
// benchmark, so no change to the repository changes the task.
type refRecord struct {
	ID     string    `json:"id"`
	Fed    int       `json:"fed"`
	Lambda []float64 `json:"lambda"`
}

// refTrips is how many encode-decode round trips one round of the
// reference task makes, and refNominal what a round takes at the speed
// the benchmark reports in: the fast state of the 2-vCPU machine it was
// sized on, where a round took 1.0 ms (1.7 ms in the slow state).
const (
	refTrips   = 64
	refNominal = time.Millisecond
)

// probeEvery is how often the probe runs a round: two to three hundredths
// of the daemon's CPU.
const probeEvery = 50 * time.Millisecond

// probe times the reference task on the daemon's CPUs every probeEvery,
// by the calling thread's CPU clock, so time the thread waits for the CPU
// does not count.
type probe struct {
	paused atomic.Bool
	stop   chan struct{}
	done   chan struct{}
	mu     sync.Mutex
	rounds []refRound
}

type refRound struct {
	at  time.Time // when the round ended
	dur time.Duration
}

// startProbe starts the probe on its own thread, bound to the CPUs the
// daemon runs on (all of them when there is only one).
func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		// The thread stays locked: it ends with the goroutine, taking its
		// CPU binding with it.
		runtime.LockOSThread()
		if len(allowed) >= 2 {
			// Unbound, the probe would time some other CPU than the
			// daemon's; the rounds would still be there, only less telling.
			_ = setAffinity(0, allowed[1:])
		}
		rec := refRecord{ID: "s001", Lambda: make([]float64, 48)}
		for i := range rec.Lambda {
			rec.Lambda[i] = 7.5 + 0.37*float64(i)
		}
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			if p.paused.Load() {
				continue
			}
			start := threadCPU()
			refTask(&rec)
			r := refRound{at: time.Now(), dur: threadCPU() - start}
			p.mu.Lock()
			p.rounds = append(p.rounds, r)
			p.mu.Unlock()
		}
	}()
	return p
}

// refTask is one round of the reference task.
func refTask(rec *refRecord) {
	for range refTrips {
		rec.Fed++
		data, err := json.Marshal(rec)
		if err != nil {
			panic(err) // the record always encodes
		}
		var back refRecord
		if err := json.Unmarshal(data, &back); err != nil {
			panic(err)
		}
	}
}

// pause stops the probe running rounds while fn runs: the open loop's
// latencies would otherwise include the pushes that waited for a round.
func (p *probe) pause(fn func() error) error {
	p.paused.Store(true)
	defer p.paused.Store(false)
	return fn()
}

// close stops the probe and waits for it.
func (p *probe) close() {
	close(p.stop)
	<-p.done
}

// slowdown is how much slower than refNominal the reference rounds ended
// in [from, to] ran: the median round over refNominal. An interval with
// fewer than minProbeRounds rounds is widened equally on both sides until
// it has them. It is 1 when the probe has no rounds at all.
func (p *probe) slowdown(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.rounds) == 0 {
		return 1
	}
	for pad := time.Duration(0); ; pad += probeEvery {
		var durs []float64
		for _, r := range p.rounds {
			if !r.at.Before(from.Add(-pad)) && !r.at.After(to.Add(pad)) {
				durs = append(durs, float64(r.dur))
			}
		}
		if len(durs) >= min(minProbeRounds, len(p.rounds)) {
			return median(durs) / float64(refNominal)
		}
	}
}

// minProbeRounds is how many rounds a slowdown is read from at least.
const minProbeRounds = 5

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// CLOCK_THREAD_CPUTIME_ID cannot fail on Linux for the calling thread.
	_, _, _ = syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
