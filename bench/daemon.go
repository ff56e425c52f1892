package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/rightsized from the checkout at root.
func buildDaemon(root, out string) (string, error) {
	bin := filepath.Join(out, "rightsized")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rightsized")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/rightsized: %w", err)
	}
	return bin, nil
}

// daemon is one rightsized process serving one workload.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	dir    string // the process's snapshot and WAL directories
	exited chan error
}

// startDaemon launches the binary with the workload's flags on a free
// loopback port and waits until /v1/healthz answers. Its log goes to
// log; its data directories live under dir, which stop removes.
func startDaemon(bin string, w workload, dir string, log *os.File) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	// hourly-resume holds all its sessions live while it ages them, past
	// the default cap of 256.
	args := []string{"-addr", addr, "-idle-evict", w.evict.String(), "-max-sessions", strconv.Itoa(2 * w.sessions)}
	if w.evict > 0 {
		args = append(args, "-snapshot-dir", filepath.Join(dir, "snapshots"))
	}
	if w.wal {
		args = append(args, "-wal-dir", filepath.Join(dir, "wal"), "-wal-sync", "always")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// The daemon dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := startOnDaemonCPUs(cmd.Start); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, dir: dir, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	c := newConn(addr)
	defer c.close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := health(c); err == nil {
			return d, nil
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, fmt.Errorf("rightsized exited during start-up (%v); see %s", err, log.Name())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("rightsized not healthy after 10s; see %s", log.Name())
		}
		sleepUntil(time.Now().Add(500 * time.Microsecond))
	}
}

// stop kills the process, waits for it to end and removes its data.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.exited
	os.RemoveAll(d.dir)
}

// cpuTime is the CPU time the process's threads have run so far, summed
// from /proc/<pid>/task/*/schedstat in nanoseconds (/proc/<pid>/stat
// counts in 10 ms ticks, too coarse for one-second windows). The Go
// runtime does not end its threads, so no CPU time leaves the sum.
func (d *daemon) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			return 0, err
		}
		f := bytes.Fields(data)
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat")
		}
		ns, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing schedstat: %w", err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// sample is one reading of the daemon's CPU time and resident memory.
type sample struct {
	at  time.Time
	cpu time.Duration
	rss float64 // MB
}

// sample reads the process's CPU time and resident memory now and every
// `every` after, until the function it returns is called, which takes a
// last reading and returns them all.
func (d *daemon) sample(every time.Duration) func() ([]sample, error) {
	stop, done := make(chan struct{}), make(chan struct{})
	var samples []sample
	var err error
	read := func() bool {
		s := sample{at: time.Now()}
		if s.cpu, err = d.cpuTime(); err == nil {
			s.rss, err = d.rss()
		}
		if err != nil {
			return false
		}
		samples = append(samples, s)
		return true
	}
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for read() {
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() ([]sample, error) {
		close(stop)
		<-done
		if err == nil {
			read()
		}
		return samples, err
	}
}

// rss reads the process's resident memory, VmRSS, in MB.
func (d *daemon) rss() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}
