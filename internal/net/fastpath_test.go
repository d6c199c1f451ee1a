package net

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weakestfd/internal/model"
)

// waitQuiesced blocks until every sent message is accounted for as delivered
// or dropped — the finite workloads of these tests have all landed once the
// books balance.
func waitQuiesced(t *testing.T, nw *Network) {
	t.Helper()
	m := nw.Metrics()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sent, done := m.Get("msgs.sent"), m.Get("msgs.delivered")+m.Get("msgs.dropped")
		if sent == done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("network never quiesced: sent=%d accounted=%d", sent, done)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// ---- batched vs serial broadcast: white-box schedule equality ----

// broadcastSchedule drives a fixed mixed workload — broadcasts from rotating
// senders interleaved with unicasts — on a fresh network and returns, per
// recipient, the exact delivery sequence as "from/type@sentAt" strings.
func broadcastSchedule(t *testing.T, seed int64, drop float64, opts ...Option) [][]string {
	t.Helper()
	const n, rounds = 5, 12
	all := append([]Option{WithSeed(seed), WithDropRate(drop)}, opts...)
	nw := NewNetwork(n, all...)
	defer nw.Close()
	nw.Freeze()
	for r := 0; r < rounds; r++ {
		nw.Endpoint(model.ProcessID(r%n)).Broadcast("sched", "b", r)
		nw.Endpoint(model.ProcessID((r+1)%n)).Send(model.ProcessID((r+2)%n), "sched", "u", r)
	}
	nw.Thaw()
	// Let the dispatcher drain, then collect what each recipient saw. The
	// workload is finite, so a quiescent queue means delivery is complete.
	waitQuiesced(t, nw)
	out := make([][]string, n)
	for p := 0; p < n; p++ {
		for {
			msg, ok := nw.Endpoint(model.ProcessID(p)).TryRecv("sched")
			if !ok {
				break
			}
			out[p] = append(out[p], fmt.Sprintf("%v/%s@%d", msg.From, msg.Type, msg.SentAt))
		}
	}
	return out
}

// The batched broadcast enqueue must produce byte-for-byte the schedule of
// the serial per-recipient loop: same RNG draws in the same order (drop draw
// first where links are lossy, then the delay draw), same (time, seq) slots.
// This is the white-box half of the determinism contract; the scenario
// package pins the same property end-to-end on Result.Fingerprint.
func TestBatchedBroadcastMatchesSerialSchedule(t *testing.T) {
	for _, drop := range []float64{0, 0.3} {
		for _, seed := range []int64{1, 7, 42, 99} {
			t.Run(fmt.Sprintf("drop=%v/seed=%d", drop, seed), func(t *testing.T) {
				batched := broadcastSchedule(t, seed, drop)
				serial := broadcastSchedule(t, seed, drop, WithSerialBroadcast())
				if len(batched) != len(serial) {
					t.Fatalf("recipient counts differ: %d vs %d", len(batched), len(serial))
				}
				for p := range batched {
					if got, want := fmt.Sprint(batched[p]), fmt.Sprint(serial[p]); got != want {
						t.Fatalf("recipient %d schedules diverge:\nbatched: %s\nserial:  %s", p, got, want)
					}
				}
			})
		}
	}
}

// ---- handler-mode delivery ----

type recordingHandler struct {
	mu   sync.Mutex
	msgs []Message
	inst Instance // non-zero: reply to every "ping" with a "pong"
}

func (h *recordingHandler) HandleMessage(msg Message) {
	h.mu.Lock()
	h.msgs = append(h.msgs, msg)
	h.mu.Unlock()
	if h.inst != (Instance{}) && msg.Type == "ping" {
		h.inst.SendAux(msg.From, "pong", msg.Aux, 0, nil)
	}
}

func (h *recordingHandler) snapshot() []Message {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Message(nil), h.msgs...)
}

// Handler mode delivers synchronously in schedule order, bypassing the ring,
// and a handler may send (sends only enqueue, so the dispatcher never
// deadlocks on its own delivery).
func TestHandlerModeDeliversInOrderAndMaySend(t *testing.T) {
	nw := NewNetwork(2, WithSeed(3))
	defer nw.Close()
	server := nw.Endpoint(1).Instance("rpc")
	h := &recordingHandler{inst: server}
	server.Handle(h)
	client := nw.Endpoint(0).Instance("rpc")
	replies := watchInbox(nw.Endpoint(0), "rpc")

	const k = 50
	for i := 0; i < k; i++ {
		client.SendAux(1, "ping", int64(i), 0, nil)
	}
	seen := make(map[int64]bool, k)
	for i := 0; i < k; i++ {
		select {
		case msg := <-replies:
			if msg.Type != "pong" {
				t.Fatalf("unexpected reply type %q", msg.Type)
			}
			seen[msg.Aux] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("got %d/%d replies", i, k)
		}
	}
	if len(seen) != k {
		t.Fatalf("distinct replies = %d, want %d", len(seen), k)
	}
	if got := len(h.snapshot()); got != k {
		t.Fatalf("handler saw %d messages, want %d", got, k)
	}
}

// A nil Handle restores buffered delivery: messages pushed after the reset
// land in the ring and are readable through TryRecv.
func TestHandlerNilRestoresBuffering(t *testing.T) {
	nw := NewNetwork(2, WithSeed(4))
	defer nw.Close()
	inst := nw.Endpoint(1).Instance("hb")
	h := &recordingHandler{}
	inst.Handle(h)
	nw.Endpoint(0).Instance("hb").Send(1, "a", nil)
	waitQuiesced(t, nw)
	if got := len(h.snapshot()); got != 1 {
		t.Fatalf("handler saw %d messages, want 1", got)
	}
	inst.Handle(nil)
	nw.Endpoint(0).Instance("hb").Send(1, "b", nil)
	waitQuiesced(t, nw)
	msg, ok := inst.TryRecv()
	if !ok || msg.Type != "b" {
		t.Fatalf("buffered delivery after Handle(nil): ok=%v msg=%v", ok, msg)
	}
	if got := len(h.snapshot()); got != 1 {
		t.Fatalf("handler saw %d messages after unregistering, want 1", got)
	}
}

// ---- mailbox fast-path edge cases ----

// Concurrent pushes racing TryRecv from several consumer goroutines must
// neither lose nor duplicate messages. Run under -race this doubles as the
// memory-model check of the lock-light push/tryPop pair.
func TestPushRacingTryRecvLosesNothing(t *testing.T) {
	nw := NewNetwork(2, WithSeed(5), WithDelays(0, 10*time.Microsecond))
	defer nw.Close()
	inst := nw.Endpoint(1).Instance("race")

	const k = 2000
	var got sync.Map
	var count atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if msg, ok := inst.TryRecv(); ok {
					if _, dup := got.LoadOrStore(msg.Aux, true); dup {
						t.Errorf("duplicate delivery of %d", msg.Aux)
						return
					}
					count.Add(1)
					continue
				}
				select {
				case <-stop:
					// stop closes only after every message is pushed, so an
					// empty ring here means the rest is in other workers'
					// hands or already counted; anything pushed between our
					// last look and the close is caught by the main
					// goroutine's final drain.
					return
				default:
				}
			}
		}()
	}
	src := nw.Endpoint(0).Instance("race")
	for i := 0; i < k; i++ {
		src.SendAux(1, "m", int64(i), 0, nil)
	}
	waitQuiesced(t, nw)
	close(stop)
	wg.Wait()
	// Drain whatever the workers' final sweeps left behind.
	for {
		if _, ok := inst.TryRecv(); !ok {
			break
		}
		count.Add(1)
	}
	if count.Load() != k {
		t.Fatalf("received %d/%d messages", count.Load(), k)
	}
}

// A 1000-sender fan-in floods one mailbox far past its initial ring: the
// ring must wrap and grow without reordering (zero delay keeps the schedule
// at pure enqueue order, so FIFO per sender is checkable exactly).
func TestLargeFanInRingGrowthKeepsPerSenderFIFO(t *testing.T) {
	const n, per = 1000, 3
	nw := NewNetwork(n, WithSeed(6), WithDelays(0, 0))
	defer nw.Close()
	sink := nw.Endpoint(0).Instance("fanin")
	nw.Freeze()
	for r := 0; r < per; r++ {
		for p := 1; p < n; p++ {
			nw.Endpoint(model.ProcessID(p)).Instance("fanin").SendAux(0, "m", int64(r), 0, nil)
		}
	}
	nw.Thaw()
	waitQuiesced(t, nw)
	last := make(map[int]int64, n)
	total := 0
	for {
		msg, ok := sink.TryRecv()
		if !ok {
			break
		}
		total++
		from := int(msg.From)
		if prev, seen := last[from]; seen && msg.Aux <= prev {
			t.Fatalf("per-sender FIFO broken for p%d: %d after %d", from, msg.Aux, prev)
		}
		last[from] = msg.Aux
	}
	if want := (n - 1) * per; total != want {
		t.Fatalf("received %d/%d messages", total, want)
	}
}

// A watcher registered after a flood must surface everything already
// buffered: its first step drains the ring's current contents, it does not
// wait for the next push.
func TestWatchAfterFloodDeliversBacklog(t *testing.T) {
	nw := NewNetwork(2, WithSeed(7))
	defer nw.Close()
	const k = 500
	for i := 0; i < k; i++ {
		nw.Endpoint(0).Send(1, "late", "m", i)
	}
	waitQuiesced(t, nw)
	inbox := watchInbox(nw.Endpoint(1), "late")
	seen := 0
	for seen < k {
		select {
		case <-inbox:
			seen++
		case <-time.After(5 * time.Second):
			t.Fatalf("watcher saw %d/%d backlogged messages", seen, k)
		}
	}
}

// ---- timers ----

// Stopping a timer must discard its pending fire: a heavy create/stop churn
// stays silent, and a fresh timer still fires afterwards.
func TestStoppedLeasesNeverCrossTalk(t *testing.T) {
	nw := NewNetwork(1, WithSeed(9))
	defer nw.Close()
	ep := nw.Endpoint(0)
	stopped := make([]*Timer, 200)
	for i := range stopped {
		stopped[i] = ep.NewTimer(time.Microsecond)
		stopped[i].Stop()
	}
	// Once a later timer has fired, every stopped deadline has popped.
	select {
	case <-oneShot(ep, time.Millisecond):
	case <-time.After(5 * time.Second):
		t.Fatal("fresh timer after churn never fired")
	}
	for i, tm := range stopped {
		if tm.TryFire() {
			t.Fatalf("iteration %d: stopped timer fired", i)
		}
	}
}
