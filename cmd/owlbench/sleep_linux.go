package main

import (
	"context"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerSlop is how late a Go timer may fire in a process whose threads are
// all idle: the runtime parks in epoll_wait, whose timeout is in whole
// milliseconds. A lookup is served in a fraction of a millisecond, so a
// pacer or a visibility poll that overslept by that much would measure
// mostly its own error.
const timerSlop = time.Millisecond

// sleeper wakes its one goroutine at a precise time. It reads a timerfd
// through the runtime's network poller: the kernel's high-resolution timer
// makes the descriptor readable, and epoll_wait returns at once for a ready
// descriptor whatever its own timeout was rounded to. Unlike a nanosleep
// system call, the wait holds no scheduler slot, so the server under test
// keeps both cores.
type sleeper struct{ f *os.File }

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

// until waits for t and reports false if ctx ended first. All but the last
// timerSlop of a long wait is an ordinary timer, which can be cancelled.
func (s *sleeper) until(ctx context.Context, t time.Time) bool {
	if wait := time.Until(t) - timerSlop; wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return false
		}
	}
	if wait := time.Until(t); wait > 0 {
		// itimerspec: interval (none) then first expiry, relative.
		spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(wait))}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.f.Fd(), 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		if errno != 0 {
			time.Sleep(wait)
			return ctx.Err() == nil
		}
		var expirations [8]byte
		if _, err := s.f.Read(expirations[:]); err != nil {
			time.Sleep(time.Until(t))
		}
	}
	return ctx.Err() == nil
}
