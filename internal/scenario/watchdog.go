package scenario

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Watchdog detects a stalled soak: the round-driving goroutine calls
// Tick once per round, and if no tick arrives for the stall duration
// the onStall callback fires exactly once with the last ticked round.
//
// The driver publishes progress only through Tick's atomics — the
// watchdog goroutine never reads engine state, so it is race-free at
// any exchange-parallelism level.
type Watchdog struct {
	stall   time.Duration
	onStall func(lastRound int)

	lastRound atomic.Int64
	ticks     atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewWatchdog starts a watchdog that fires onStall(lastRound) after
// stall elapses with no Tick. Stop it when the run completes.
func NewWatchdog(stall time.Duration, onStall func(lastRound int)) *Watchdog {
	w := &Watchdog{
		stall:   stall,
		onStall: onStall,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	w.lastRound.Store(-1)
	go w.loop()
	return w
}

// Tick reports that round is being worked on. Call it once per round
// from the driving goroutine.
func (w *Watchdog) Tick(round int) {
	w.lastRound.Store(int64(round))
	w.ticks.Add(1)
}

// Stop disarms the watchdog and waits for its goroutine to exit. After
// Stop returns, onStall will never fire (unless it already has).
// Idempotent.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

func (w *Watchdog) loop() {
	defer close(w.done)
	poll := w.stall / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	seen := w.ticks.Load()
	lastProgress := time.Now()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if cur := w.ticks.Load(); cur != seen {
				seen = cur
				lastProgress = time.Now()
				continue
			}
			if time.Since(lastProgress) >= w.stall {
				w.onStall(int(w.lastRound.Load()))
				return
			}
		}
	}
}

// StallReport writes the standard stall diagnosis: the stuck round, the
// most recent durable checkpoint (empty string for none) and a full
// all-goroutine stack dump — everything needed to resume from that
// checkpoint and reproduce the stall.
func StallReport(w io.Writer, lastRound int, lastCheckpoint string) {
	fmt.Fprintf(w, "watchdog: no round progress; last round worked on: %d\n", lastRound)
	if lastCheckpoint != "" {
		fmt.Fprintf(w, "watchdog: last durable checkpoint: %s\n", lastCheckpoint)
	} else {
		fmt.Fprintf(w, "watchdog: no durable checkpoint exists\n")
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	w.Write(buf[:n])
}
