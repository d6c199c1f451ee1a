package net

import (
	"context"
	"strings"
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
