//go:build !linux

package main

import "time"

// pacer falls back to the runtime's timers, which may wake up to 1 ms late
// on an idle process.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (*pacer) sleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (*pacer) close() {}
