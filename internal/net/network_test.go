package net

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"weakestfd/internal/model"
	"weakestfd/internal/trace"
)

func TestClock(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("Now = %d", c.Now())
	}
	if c.Tick() != 1 || c.Tick() != 2 || c.Now() != 2 {
		t.Fatalf("Tick sequence wrong")
	}
}

func TestSendAndReceive(t *testing.T) {
	nw := NewNetwork(3, WithSeed(42))
	defer nw.Close()

	ep0, ep1 := nw.Endpoint(0), nw.Endpoint(1)
	inbox := watchInbox(ep1, "test")
	ep0.Send(1, "test", "hello", 99)

	select {
	case msg := <-inbox:
		if msg.From != 0 || msg.To != 1 || msg.Type != "hello" || msg.Payload.(int) != 99 {
			t.Fatalf("message = %+v", msg)
		}
		if msg.String() != "p0->p1 test/hello" {
			t.Fatalf("String = %q", msg.String())
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("message not delivered")
	}
}

func TestBroadcastReachesAllIncludingSelf(t *testing.T) {
	nw := NewNetwork(4, WithSeed(7))
	defer nw.Close()

	inboxes := make([]<-chan Message, 4)
	for i := 0; i < 4; i++ {
		inboxes[i] = watchInbox(nw.Endpoint(model.ProcessID(i)), "bc")
	}
	nw.Endpoint(2).Broadcast("bc", "ping", nil)

	for i, in := range inboxes {
		select {
		case msg := <-in:
			if msg.From != 2 || msg.Type != "ping" {
				t.Fatalf("process %d got %+v", i, msg)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("process %d never received broadcast", i)
		}
	}
}

func TestWatchAfterDeliveryDoesNotLoseMessages(t *testing.T) {
	nw := NewNetwork(2, WithSeed(3), WithDelays(0, 0))
	defer nw.Close()

	nw.Endpoint(0).Send(1, "late", "m", 1)
	time.Sleep(20 * time.Millisecond) // let delivery happen before anyone watches
	select {
	case msg := <-watchInbox(nw.Endpoint(1), "late"):
		if msg.Payload.(int) != 1 {
			t.Fatalf("payload = %v", msg.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("buffered message lost")
	}
}

func TestInstancesAreIsolated(t *testing.T) {
	nw := NewNetwork(2, WithSeed(5), WithDelays(0, 0))
	defer nw.Close()

	a := watchInbox(nw.Endpoint(1), "a")
	b := watchInbox(nw.Endpoint(1), "b")
	nw.Endpoint(0).Send(1, "a", "x", nil)

	select {
	case <-a:
	case <-time.After(2 * time.Second):
		t.Fatalf("instance a message missing")
	}
	select {
	case msg := <-b:
		t.Fatalf("instance b received foreign message %v", msg)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestCrashStopsDeliveryAndSending(t *testing.T) {
	nw := NewNetwork(3, WithSeed(11), WithDelays(0, 0))
	defer nw.Close()

	victim := nw.Endpoint(1)
	inbox := watchInbox(victim, "x")
	other := watchInbox(nw.Endpoint(2), "x")

	nw.Crash(1)
	if !nw.Crashed(1) || !victim.Crashed() {
		t.Fatalf("crash flag not set")
	}
	select {
	case <-victim.Context().Done():
	case <-time.After(time.Second):
		t.Fatalf("context not cancelled on crash")
	}

	// Messages to the crashed process are dropped.
	nw.Endpoint(0).Send(1, "x", "m", nil)
	select {
	case msg := <-inbox:
		t.Fatalf("crashed process received %v", msg)
	case <-time.After(50 * time.Millisecond):
	}

	// Messages from the crashed process are dropped.
	victim.Send(2, "x", "m", nil)
	select {
	case msg := <-other:
		t.Fatalf("message from crashed process delivered: %v", msg)
	case <-time.After(50 * time.Millisecond):
	}

	// The crash is recorded in the failure pattern.
	if !nw.Pattern().Faulty().Contains(1) {
		t.Fatalf("crash not recorded in failure pattern")
	}
	if got := nw.Alive(); !got.Equal(model.NewProcessSet(0, 2)) {
		t.Fatalf("Alive = %v", got)
	}
}

func TestCrashIsIdempotent(t *testing.T) {
	nw := NewNetwork(2)
	defer nw.Close()
	nw.Crash(0)
	first := nw.Pattern().CrashTime(0)
	nw.Crash(0)
	if nw.Pattern().CrashTime(0) != first {
		t.Fatalf("second Crash changed the crash time")
	}
	if nw.Metrics().Get("crashes") != 1 {
		t.Fatalf("crashes counter = %d", nw.Metrics().Get("crashes"))
	}
}

func TestFIFOPerMailboxWithZeroDelay(t *testing.T) {
	// With zero injected delay a single sender's messages to one instance are
	// enqueued in order by the (serial) test goroutine and must come out in
	// FIFO order.
	nw := NewNetwork(2, WithDelays(0, 0))
	defer nw.Close()

	inbox := watchInbox(nw.Endpoint(1), "fifo")
	const k = 50
	done := make(chan struct{})
	var got []int
	go func() {
		defer close(done)
		for i := 0; i < k; i++ {
			msg := <-inbox
			got = append(got, msg.Payload.(int))
		}
	}()
	for i := 0; i < k; i++ {
		nw.Endpoint(0).Send(1, "fifo", "n", i)
		time.Sleep(200 * time.Microsecond)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only received %d/%d messages", len(got), k)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out-of-order delivery at %d: %v", i, got[:i+1])
		}
	}
}

func TestMetricsCountsSends(t *testing.T) {
	m := trace.NewMetrics()
	nw := NewNetwork(3, WithMetrics(m), WithDelays(0, 0))
	defer nw.Close()

	nw.Endpoint(0).Broadcast("m", "t", nil)
	deadline := time.Now().Add(2 * time.Second)
	for m.Get("msgs.delivered") < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.Get("msgs.sent") != 3 {
		t.Fatalf("msgs.sent = %d", m.Get("msgs.sent"))
	}
	if m.Get("msgs.sent.m") != 3 {
		t.Fatalf("msgs.sent.m = %d", m.Get("msgs.sent.m"))
	}
	if m.Get("msgs.delivered") != 3 {
		t.Fatalf("msgs.delivered = %d", m.Get("msgs.delivered"))
	}
}

func TestCloseDropsSubsequentSends(t *testing.T) {
	nw := NewNetwork(2, WithDelays(0, 0))
	inbox := watchInbox(nw.Endpoint(1), "x")
	nw.Close()
	nw.Endpoint(0).Send(1, "x", "m", nil)
	select {
	case msg := <-inbox:
		t.Fatalf("message delivered after Close: %v", msg)
	case <-time.After(50 * time.Millisecond):
	}
	nw.Close() // second Close must be a no-op
}

func TestManyConcurrentSendersStress(t *testing.T) {
	nw := NewNetwork(5, WithSeed(99))
	defer nw.Close()

	const perSender = 40
	var wg sync.WaitGroup
	received := make(chan int, 5*5*perSender)
	for i := 0; i < 5; i++ {
		inbox := watchInbox(nw.Endpoint(model.ProcessID(i)), "stress")
		go func() {
			for msg := range inbox {
				received <- msg.Payload.(int)
			}
		}()
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perSender; j++ {
				nw.Endpoint(model.ProcessID(id)).Broadcast("stress", "n", id*1000+j)
			}
		}(i)
	}
	wg.Wait()
	want := 5 * 5 * perSender
	deadline := time.After(10 * time.Second)
	for i := 0; i < want; i++ {
		select {
		case <-received:
		case <-deadline:
			t.Fatalf("received %d/%d messages", i, want)
		}
	}
}

func TestInvalidConstruction(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewNetwork(0) did not panic")
		}
	}()
	NewNetwork(0)
}

func TestSendOutOfRangePanics(t *testing.T) {
	nw := NewNetwork(2)
	defer nw.Close()
	defer func() {
		if recover() == nil {
			t.Fatalf("send to out-of-range process did not panic")
		}
	}()
	nw.Endpoint(0).Send(5, "x", "m", nil)
}

func TestEndpointAccessors(t *testing.T) {
	nw := NewNetwork(3)
	defer nw.Close()
	ep := nw.Endpoint(2)
	if ep.ID() != 2 || ep.N() != 3 || ep.Network() != nw || ep.Clock() != nw.Clock() {
		t.Fatalf("accessors wrong")
	}
	if fmt.Sprint(ep.ID()) != "p2" {
		t.Fatalf("ID string = %v", ep.ID())
	}
}
