package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a kernel CPU affinity mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU confines every thread of this process — and with them every
// thread and child process started afterwards, which inherit the mask — to
// one CPU, and returns its number.
//
// The host is a few virtual CPUs shared with other tenants. A generator and
// a server of several Ps each, spread over them, hand work to each other
// across CPUs thousands of times a second; every hand-off wakes an idle
// virtual CPU, which the host reschedules when it sees fit, and idle Ps of
// the Go runtime spin while they wait. How long that takes is the host's
// mood, not the program's cost, and it moves throughput and CPU per op by
// tens of per cent between runs of the same code. On one CPU, with one P
// per process, a hand-off is a context switch, the CPU never idles while
// there is work, and what is left of a neighbour's interference is steal
// time, which the kernel reports and the meter subtracts.
//
// The highest-numbered allowed CPU is taken: CPU 0 serves the device
// interrupts.
func pinToOneCPU() (int, error) {
	var allowed cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	cpu := -1
	for i := len(allowed)*64 - 1; i >= 0 && cpu < 0; i-- {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("sched_getaffinity: empty mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// Affinity is per thread. A thread the runtime starts while the first
	// pass is under way may have been cloned from one not yet pinned; the
	// second pass catches it, and from then on every new thread has a
	// pinned parent.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return cpu, nil
}

// cpuSteal returns how long the host has run something else while CPU cpu
// had work to do: the steal column of /proc/stat, 0 where the kernel does
// not report it.
func cpuSteal(cpu int) time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	name := "cpu" + strconv.Itoa(cpu)
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		// cpuN user nice system idle iowait irq softirq steal ...
		if len(f) > 8 && f[0] == name {
			ticks, _ := strconv.ParseInt(f[8], 10, 64)
			return time.Duration(ticks) * time.Second / userHZ
		}
	}
	return 0
}
