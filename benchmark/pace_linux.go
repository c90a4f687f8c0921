package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// sleepUntil blocks until t. The Go runtime's timers overshoot a sub-
// millisecond sleep by about a millisecond when the process is otherwise
// idle, which is longer than a whole request here, so an open-loop schedule
// kept with time.Sleep would measure the generator. nanosleep with the calling
// thread's timer slack at its minimum wakes within tens of microseconds. The
// slack is set before every sleep because the goroutine may have moved to
// another thread.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	// The slack only tightens the wake-up; a kernel that refuses it still sleeps.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	// An early return (EINTR) sends the request early by less than the remaining
	// sleep, and the lag metric shows it.
	_ = syscall.Nanosleep(&ts, nil)
}
