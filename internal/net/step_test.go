package net

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weakestfd/internal/model"
)

// runPingPong stands up a two-process network, runs a traced ping-pong of
// fixed length between two scheduler-visible tasks, and returns the trace
// fingerprint with its counters.
func runPingPong(t *testing.T) (string, TraceStats) {
	t.Helper()
	nw := NewNetwork(2, WithSeed(9), WithDelays(time.Millisecond, 5*time.Millisecond))
	defer nw.Close()
	nw.Freeze()

	const rounds = 5
	done := make(chan struct{}, 2)
	player := func(ep *Endpoint, peer model.ProcessID, opens bool) func(*Task) {
		return func(task *Task) {
			defer func() { done <- struct{}{} }()
			in := ep.Instance("pp")
			in.Watch(task)
			defer in.Watch(nil)
			// The opener serves rounds balls and counts the echoes; the
			// responder echoes every ball it receives. Both sides see exactly
			// rounds messages, so neither parks waiting on a reply that will
			// never come.
			if opens {
				ep.Send(peer, "pp", "ball", 0)
			}
			for got := 0; got < rounds; {
				if m, ok := in.TryRecv(); ok {
					got++
					if opens && got < rounds {
						ep.Send(peer, "pp", "ball", m.Payload.(int)+1)
					} else if !opens {
						ep.Send(peer, "pp", "echo", m.Payload.(int))
					}
					continue
				}
				task.Await(nil)
			}
		}
	}
	nw.TraceGroup(2)
	nw.GoGroup(nw.Endpoint(0), "pp0", player(nw.Endpoint(0), 1, true))
	nw.GoGroup(nw.Endpoint(1), "pp1", player(nw.Endpoint(1), 0, false))
	nw.Thaw()
	fp, st := nw.TraceResult()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("ping-pong player %d never finished", i)
		}
	}
	return fp, st
}

// TestStepTraceDeterministic: two identically-seeded step-mode runs hash to
// byte-identical trace fingerprints, and the counters agree.
func TestStepTraceDeterministic(t *testing.T) {
	fp1, st1 := runPingPong(t)
	fp2, st2 := runPingPong(t)
	if fp1 == "" {
		t.Fatal("step-mode run produced no trace fingerprint")
	}
	if fp1 != fp2 {
		t.Fatalf("trace fingerprints diverged:\n%s\n%s", fp1, fp2)
	}
	if st1 != st2 {
		t.Fatalf("trace counters diverged: %+v vs %+v", st1, st2)
	}
	if st1.Messages == 0 || st1.Grants == 0 {
		t.Fatalf("trace counters implausible: %+v", st1)
	}
}

// TestEscapeTaintsTrace: a wall-clock escape (context cancellation while
// parked) resumes the task without the token and forfeits the fingerprint —
// the cut point is not reproducible, so the trace must not pretend it is.
func TestEscapeTaintsTrace(t *testing.T) {
	nw := NewNetwork(1, WithSeed(1))
	defer nw.Close()
	nw.Freeze()
	nw.TraceGroup(1)
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan struct{})
	nw.GoGroup(nw.Endpoint(0), "waiter", func(task *Task) {
		close(parked)
		for ctx.Err() == nil {
			task.Await(ctx)
		}
	})
	nw.Thaw()
	<-parked
	time.Sleep(10 * time.Millisecond) // let it park with no wake pending
	cancel()
	fp, st := nw.TraceResult()
	if fp != "" {
		t.Fatalf("escaped run kept a fingerprint: %q", fp)
	}
	if st.TaintReason == "" {
		t.Fatal("escaped run surfaced no taint reason")
	}
	if !strings.Contains(st.TaintReason, `"waiter"`) || !strings.Contains(st.TaintReason, "process 0") {
		t.Fatalf("taint reason does not name the escaping task: %q", st.TaintReason)
	}
	st.TaintReason = ""
	if st != (TraceStats{}) {
		t.Fatalf("escaped run kept trace counters: %+v", st)
	}
}

// TestWakeCreditNotLost: a Wake issued while the task is running (between its
// condition check and the park) makes the next Await return immediately — the
// no-lost-wakeup half of the park protocol.
func TestWakeCreditNotLost(t *testing.T) {
	nw := NewNetwork(1, WithSeed(2))
	defer nw.Close()
	nw.Freeze()
	nw.TraceGroup(1)
	ran := make(chan struct{})
	nw.GoGroup(nw.Endpoint(0), "selfwake", func(task *Task) {
		task.Wake()     // credit issued while running
		task.Await(nil) // must consume the credit, not park forever
		close(ran)
	})
	nw.Thaw()
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("pending wake credit was lost: Await parked forever")
	}
	if fp, _ := nw.TraceResult(); fp == "" {
		t.Fatal("clean self-waking run lost its trace")
	}
}

// TestCloseFinishesEveryTaskOnce: Close runs every unfinished task to its
// exit exactly once — one parked with no wake pending, one woken and still
// queued for its grant, and one spawned under Freeze that never had a first
// grant — and every task goroutine is gone afterwards.
func TestCloseFinishesEveryTaskOnce(t *testing.T) {
	baseline := runtime.NumGoroutine()
	nw := NewNetwork(2, WithSeed(3))
	var runs, exits [3]atomic.Int32
	started := make(chan struct{}, 2)
	body := func(i int) func(*Task) {
		return func(task *Task) {
			runs[i].Add(1)
			defer exits[i].Add(1)
			started <- struct{}{}
			for task.ep.Context().Err() == nil {
				task.Await(nil)
			}
		}
	}
	nw.Go(nw.Endpoint(0), "parked", body(0))
	ready := nw.Go(nw.Endpoint(1), "ready", body(1))
	<-started
	<-started
	// Both tasks are on their first step or parked. Frozen, the dispatcher
	// grants nothing more: it parks them both, then queues the woken one and
	// the fresh one, which never gets a grant.
	nw.Freeze()
	ready.WakeExternal()
	nw.Go(nw.Endpoint(0), "fresh", body(2))
	nw.Close()
	for i, name := range []string{"parked", "ready", "fresh"} {
		if r, e := runs[i].Load(), exits[i].Load(); r != 1 || e != 1 {
			t.Errorf("%s task: fn entered %d times, exited %d times; want 1 and 1", name, r, e)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after Close, %d before the network existed", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCallFromPlainGoroutine: a plain goroutine's Call runs the operation on
// a task of its own — its waits park that task — and returns the result; a
// nested Call on the same context runs inline, on the same task.
func TestCallFromPlainGoroutine(t *testing.T) {
	nw := NewNetwork(1, WithSeed(4))
	defer nw.Close()
	ep := nw.Endpoint(0)
	v, err := Call(context.Background(), ep, "op", func(ctx context.Context) (int, error) {
		task := TaskFrom(ctx)
		if task == nil {
			return 0, errors.New("op runs without a task")
		}
		if err := ep.Sleep(ctx, time.Hour); err != nil {
			return 0, err
		}
		return Call(ctx, ep, "nested", func(ctx context.Context) (int, error) {
			if TaskFrom(ctx) != task {
				return 0, errors.New("nested Call spawned a second task")
			}
			return 42, nil
		})
	})
	if err != nil || v != 42 {
		t.Fatalf("Call = %d, %v; want 42, nil", v, err)
	}
	if now := nw.VirtualNow(); now < time.Hour {
		t.Fatalf("virtual time %v after a one-hour sleep", now)
	}
}

// TestCallEscapesOnCancel: cancelling the context of a Call whose task is
// parked resumes it out of turn — the caller gets the context's error back —
// and taints the trace, naming the task.
func TestCallEscapesOnCancel(t *testing.T) {
	nw := NewNetwork(1, WithSeed(5))
	defer nw.Close()
	ep := nw.Endpoint(0)
	ctx, cancel := context.WithCancel(context.Background())
	parked := make(chan *Task, 1)
	go func() {
		// Cancel once the task has parked. A timeout cancels too, and the
		// assertions below then fail on an unnamed or missing taint.
		<-parked
		time.Sleep(10 * time.Millisecond) // let it park with no wake pending
		cancel()
	}()
	_, err := Call(ctx, ep, "stuck", func(ctx context.Context) (struct{}, error) {
		task := TaskFrom(ctx)
		parked <- task
		// Await at least once, so the cancellation always escapes a park,
		// even if it lands before the first one.
		task.Await(ctx)
		for ctx.Err() == nil {
			task.Await(ctx)
		}
		return struct{}{}, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Call returned %v, want context.Canceled", err)
	}
	s := nw.stepper
	if !s.tainted.Load() {
		t.Fatal("escaped Call left the trace untainted")
	}
	s.taintMu.Lock()
	reason := s.taintReason
	s.taintMu.Unlock()
	if !strings.Contains(reason, `"stuck"`) {
		t.Fatalf("taint reason does not name the escaping task: %q", reason)
	}
}

// BenchmarkGrantHandoff is the unit cost of the step scheduler's grant
// handoff: two tasks ping-pong through Wake and Await, so every round is two
// grants, each a park of one task and a resume of the other. It reports
// ns/grant.
func BenchmarkGrantHandoff(b *testing.B) {
	nw := NewNetwork(2)
	defer nw.Close()
	nw.Freeze()
	rounds := b.N
	done := make(chan struct{})
	var stop bool
	var ping, pong *Task
	pong = nw.Go(nw.Endpoint(1), "pong", func(task *Task) {
		for {
			task.Await(nil)
			if stop {
				close(done)
				return
			}
			ping.Wake()
		}
	})
	ping = nw.Go(nw.Endpoint(0), "ping", func(task *Task) {
		for i := 0; i < rounds; i++ {
			pong.Wake()
			task.Await(nil)
		}
		stop = true
		pong.Wake()
	})
	b.ResetTimer()
	nw.Thaw()
	<-done
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*rounds), "ns/grant")
}

// TestHandoffsFromManyGoroutines drives every cross-goroutine entry at once —
// spawns through Call from plain goroutines, WakeExternal, Crash from outside
// the dispatcher, Freeze/Thaw and finally Close — while tasks run. Under
// -race it checks that none of them touches the dispatcher-owned state; every
// Call must still return, and every task must exit exactly once.
func TestHandoffsFromManyGoroutines(t *testing.T) {
	const n = 4
	nw := NewNetwork(n, WithSeed(6), WithDelays(0, time.Millisecond))
	var exits atomic.Int32
	loops := make([]*Task, n)
	for i := range loops {
		ep := nw.Endpoint(model.ProcessID(i))
		loops[i] = nw.Go(ep, "loop", func(task *Task) {
			defer exits.Add(1)
			tm := ep.NewTicker(time.Millisecond)
			defer tm.Stop()
			tm.Bind(task)
			for ep.Context().Err() == nil {
				tm.TryFire()
				task.Await(nil)
			}
		})
	}
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := nw.Endpoint(model.ProcessID(i))
			for range 20 {
				// A crashed process's sleep ends with its context's error.
				_ = ep.Sleep(context.Background(), time.Duration(i+1)*time.Millisecond)
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range 200 {
			loops[i%n].WakeExternal()
		}
	}()
	go func() {
		defer wg.Done()
		for range 10 {
			nw.Freeze()
			nw.Thaw()
		}
		nw.Crash(n - 1)
	}()
	wg.Wait()
	nw.Close()
	if got := exits.Load(); got != n {
		t.Fatalf("%d loop tasks exited, want %d", got, n)
	}
	if !nw.Crashed(n - 1) {
		t.Fatal("Crash from a plain goroutine did not take effect")
	}
}
