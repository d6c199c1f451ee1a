package net

import (
	"testing"
	"time"
)

// fireTimes spawns a task on ep that creates a timer with newTimer during its
// first step, owns it, and reports the virtual time of each of its first k
// fires on the returned channel, then stops it.
func fireTimes(ep *Endpoint, newTimer func() *Timer, k int) <-chan time.Duration {
	ch := make(chan time.Duration, k)
	ep.Network().Go(ep, "test.timer", func(t *Task) {
		tm := newTimer()
		defer tm.Stop()
		tm.Bind(t)
		for n := 0; n < k; {
			if tm.TryFire() {
				ch <- ep.VirtualNow()
				n++
				continue
			}
			if ep.Context().Err() != nil {
				return
			}
			t.Await(nil)
		}
	})
	return ch
}

// oneShot is fireTimes for a single fire of a one-shot timer of d.
func oneShot(ep *Endpoint, d time.Duration) <-chan time.Duration {
	return fireTimes(ep, func() *Timer { return ep.NewTimer(d) }, 1)
}

func TestVirtualTimerFiresWithoutWallClockWait(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	start := time.Now()
	fired := oneShot(nw.Endpoint(0), time.Hour) // an hour of virtual time
	select {
	case at := <-fired:
		if at < time.Hour {
			t.Fatalf("fired at virtual %v, before its deadline", at)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("virtual timer never fired")
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("an hour of virtual time took %v of wall clock", wall)
	}
	if now := nw.VirtualNow(); now < time.Hour {
		t.Fatalf("VirtualNow = %v after the timer fired", now)
	}
}

func TestVirtualTickerFiresAtIncreasingTimes(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	ep := nw.Endpoint(0)
	ticks := fireTimes(ep, func() *Timer { return ep.NewTicker(3 * time.Millisecond) }, 50)
	var prev time.Duration
	for i := 0; i < 50; i++ {
		select {
		case at := <-ticks:
			if at <= prev {
				t.Fatalf("tick %d at %v, not after previous %v", i, at, prev)
			}
			prev = at
		case <-time.After(5 * time.Second):
			t.Fatalf("ticker stalled at tick %d", i)
		}
	}
}

// Messages in flight are delivered before virtual time jumps to a later timer
// deadline: the event heap orders deliveries and fires globally.
func TestPendingMessagesBeatLaterTimers(t *testing.T) {
	nw := NewNetwork(2, WithDelays(50*time.Microsecond, 100*time.Microsecond))
	defer nw.Close()
	inbox := watchInbox(nw.Endpoint(1), "beat")
	fired := oneShot(nw.Endpoint(0), 10*time.Millisecond)
	nw.Endpoint(0).Send(1, "beat", "m", nil)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatalf("timer never fired")
	}
	// By the time a 10ms timer fires, the 100µs message must already be
	// waiting in the mailbox.
	select {
	case <-inbox:
	case <-time.After(time.Second):
		t.Fatalf("message was leapfrogged by a later timer")
	}
}

// A message's delay consumes virtual time from the moment it is sent: a
// delay larger than a pending timer deadline lands after that timer fires,
// even when the virtual clock has already advanced far. (Messages stamped
// with their raw delay instead of now+delay would deliver "in the past" and
// delay distributions could never outlast a timeout.)
func TestLargeDelayLandsAfterTimer(t *testing.T) {
	nw := NewNetwork(2, WithDelays(50*time.Millisecond, 50*time.Millisecond))
	defer nw.Close()
	inbox := watchInbox(nw.Endpoint(1), "slow")

	// Advance the virtual clock well past the message delay magnitude.
	select {
	case <-oneShot(nw.Endpoint(0), 100*time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatalf("warm-up timer never fired")
	}

	sendAt := nw.VirtualNow()
	nw.Endpoint(0).Send(1, "slow", "m", nil)
	select {
	case <-inbox:
	case <-time.After(5 * time.Second):
		t.Fatalf("message never delivered")
	}
	if now := nw.VirtualNow(); now < sendAt+50*time.Millisecond {
		t.Fatalf("50ms-delay message delivered at vnow=%v, sent at %v: delay consumed no virtual time", now, sendAt)
	}
}

// A crashed process's timers are stopped automatically; an abandoned,
// never-consumed ticker must not hold up the survivors.
func TestCrashReleasesEndpointTimers(t *testing.T) {
	nw := NewNetwork(2)
	defer nw.Close()
	ticker := nw.Endpoint(0).NewTicker(time.Millisecond) // never consumed
	nw.Crash(0)
	if !ticker.Stopped() {
		t.Fatal("crashed process's ticker still live")
	}
	select {
	case <-oneShot(nw.Endpoint(1), 5*time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatalf("survivor's timer starved after the crash")
	}
}

func TestTimerStopIsIdempotent(t *testing.T) {
	nw := NewNetwork(1)
	defer nw.Close()
	ep := nw.Endpoint(0)
	var ticker *Timer
	<-fireTimes(ep, func() *Timer {
		ticker = ep.NewTicker(time.Millisecond)
		return ticker
	}, 1)
	ticker.Stop()
	ticker.Stop()
	if ticker.TryFire() {
		t.Fatal("stopped ticker still yields fires")
	}
	// After Stop the dispatcher must still make progress.
	select {
	case <-oneShot(ep, time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatalf("dispatcher wedged after ticker Stop")
	}
}
