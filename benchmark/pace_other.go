//go:build !linux

package main

import "time"

// sleepUntil blocks until t with the runtime's timers; see pace_linux.go for
// why the reference platform does not.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
