package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The untraced run keeps the load generator and the daemon off each
// other's CPUs: the benchmark process is bound to the first CPU it may
// use and the daemon to the others (on the 2-CPU machine the benchmark is
// sized for, one each; the daemon's Go runtime then sizes GOMAXPROCS to
// its one CPU). When the two processes shared both CPUs, their threads
// were placed differently from run to run, and push latency and
// throughput moved by 10-25% between identical runs. With a single CPU
// there is nothing to separate.

// cpuMask is a sched_setaffinity mask: 1024 CPUs, the kernel's default.
type cpuMask [16]uint64

// allowed is the set of CPUs the process may use, read once at start-up,
// before pinClient narrows it.
var allowed = allowedCPUs()

func allowedCPUs() []int {
	var mask cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for c := range len(mask) * 64 {
		if mask[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus
}

func setAffinity(tid int, cpus []int) error {
	var mask cpuMask
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return os.NewSyscallError("sched_setaffinity", errno)
	}
	return nil
}

// pinClient binds every thread of this process to the first allowed CPU;
// threads created later inherit the binding.
func pinClient() error {
	if len(allowed) < 2 {
		return nil
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			return err
		}
		if err := setAffinity(tid, allowed[:1]); err != nil {
			return err
		}
	}
	return nil
}

// startOnDaemonCPUs runs start, which forks the daemon, on a thread bound
// to the other allowed CPUs for the duration, so that the child inherits
// them.
func startOnDaemonCPUs(start func() error) error {
	if len(allowed) < 2 {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, allowed[1:]); err != nil {
		return err
	}
	err := start()
	if rerr := setAffinity(0, allowed[:1]); err == nil {
		err = rerr
	}
	return err
}
