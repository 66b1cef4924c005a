package main

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// sleeper gives an open-loop sender sub-millisecond sleeps. Go's timers are
// served by the netpoller, whose timed waits are whole milliseconds, so a
// goroutine that sleeps 30 µs in a mostly idle process wakes a millisecond
// late; nanosleep(2) is precise but keeps the goroutine's P for the whole
// sleep, and the generator has one P, which its receivers need. A timerfd
// has neither problem: the read parks the goroutine in the netpoller like a
// socket read, and the kernel makes the descriptor readable on time.
type sleeper struct {
	f   *os.File
	buf [8]byte
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{f: os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) close() { s.f.Close() }

// sleep parks the calling goroutine for d nanoseconds.
func (s *sleeper) sleep(d int64) {
	if d <= 0 {
		return
	}
	// struct itimerspec: interval (none), then the one-shot value.
	its := [2]syscall.Timespec{{}, syscall.NsecToTimespec(d)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.f.Fd(), 0, uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		return
	}
	s.f.Read(s.buf[:])
}
