package net

import (
	"context"
	"sync"
	"time"
)

// Timer is a one-shot or periodic timer driven by the network's scheduler: it
// fires when the virtual clock reaches its deadline — instantly in
// wall-clock terms once no earlier event is pending.
//
// A fire banks one TryFire credit and wakes the timer's owning task (see
// Bind). The task consumes fires with the condition-recheck idiom — TryFire
// inside its Await loop. The dispatcher grants the woken task before popping
// any further event, so virtual time cannot run ahead of the consumer.
//
// Timers created through an Endpoint are stopped automatically when the
// process crashes or the network closes.
type Timer struct {
	q      *eventQueue
	id     uint64 // run-local lease id (eventQueue.nextLease), hashed into the trace
	period int64  // ns; 0 for one-shot

	mu      sync.Mutex
	stopped bool
	owner   *Task
	pending int
}

func newTimer(q *eventQueue, delay, period time.Duration) *Timer {
	t := &Timer{q: q, id: q.nextLease(), period: int64(period)}
	q.scheduleTimer(t, int64(q.virtualNow())+int64(delay))
	return t
}

// Stop terminates the timer: it never fires again and its unconsumed credits
// are dropped. Stop is idempotent and safe to call concurrently with fires.
func (t *Timer) Stop() {
	t.mu.Lock()
	t.stopped = true
	t.pending = 0
	t.mu.Unlock()
}

// Bind makes task the timer's owner: every fire wakes it. A credit banked
// before the binding wakes the task at once, so the binding may come at any
// point of the owner's first step.
func (t *Timer) Bind(task *Task) {
	t.mu.Lock()
	t.owner = task
	banked := t.pending > 0
	t.mu.Unlock()
	if banked {
		task.Wake()
	}
}

// TryFire consumes one banked fire, reporting whether one was pending. For a
// ticker each fire banks one credit; for a one-shot at most one credit ever
// exists.
func (t *Timer) TryFire() bool {
	t.mu.Lock()
	ok := t.pending > 0
	if ok {
		t.pending--
	}
	t.mu.Unlock()
	return ok
}

// Stopped reports whether the timer is dead: stopped explicitly, or a
// one-shot that has fired.
func (t *Timer) Stopped() bool {
	t.mu.Lock()
	dead := t.stopped
	t.mu.Unlock()
	return dead
}

// fired is called by the dispatcher when a timer heap event pops at virtual
// time at; events of a stopped timer are discarded here. A periodic timer
// reschedules its next fire before banking this one.
func (t *Timer) fired(at int64) {
	t.mu.Lock()
	if t.stopped {
		t.mu.Unlock()
		return
	}
	if t.period > 0 {
		t.q.scheduleTimer(t, at+t.period)
	} else {
		t.stopped = true
	}
	t.pending++
	owner := t.owner
	t.mu.Unlock()
	if owner != nil {
		owner.Wake()
	}
}

// VirtualNow returns the network's current virtual time: the timestamp of
// the latest dispatched event.
func (nw *Network) VirtualNow() time.Duration { return nw.q.virtualNow() }

// VirtualNow returns the network's current virtual time.
func (ep *Endpoint) VirtualNow() time.Duration { return ep.net.q.virtualNow() }

// NewTimer returns a one-shot timer owned by this process: it is stopped
// automatically when the process crashes or the network closes.
func (ep *Endpoint) NewTimer(d time.Duration) *Timer {
	t := newTimer(ep.net.q, d, 0)
	ep.adoptTimer(t)
	return t
}

// NewTicker returns a periodic timer owned by this process: it is stopped
// automatically when the process crashes or the network closes.
func (ep *Endpoint) NewTicker(d time.Duration) *Timer {
	t := newTimer(ep.net.q, d, d)
	ep.adoptTimer(t)
	return t
}

// Sleep blocks this process for d of virtual time: instantly in wall-clock
// terms once no earlier event is pending, but ordered after everything the
// network delivers in the meantime. The sleep is a park point of the task
// ctx carries; a caller that brought no task is adopted for its span. It
// returns nil after the wait, or the first relevant error if ctx is
// cancelled or the process crashes (a crashed process never finishes a
// sleep).
func (ep *Endpoint) Sleep(ctx context.Context, d time.Duration) error {
	ctx, release := AdoptTask(ctx, ep, "sleep")
	defer release()
	task := TaskFrom(ctx)
	t := ep.NewTimer(d)
	defer t.Stop()
	t.Bind(task)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := ep.ctx.Err(); err != nil {
			return err
		}
		if t.TryFire() {
			return nil
		}
		task.Await(ctx)
	}
}
