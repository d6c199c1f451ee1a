package net

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"weakestfd/internal/model"
)

// refEvent is the model's copy of one pending event: what the queue must
// hand out for it, and the body slot its key was given at push time.
type refEvent struct {
	ev   event
	slot uint32
}

// heapModel is a reference scheduler for eventQueue's key heap: it replays
// the queue's RNG streams and sequence counter, keeps every pending event
// in a plain slice, and pops by a linear scan for the least (at, seq).
type heapModel struct {
	t                *testing.T
	q                *eventQueue
	rng, dropRng     splitmix64
	seq              uint64
	maxDelay         int64 // delays are drawn from [0, maxDelay]
	dropThreshold    uint64
	pending          []refEvent
	live             map[uint32]int // slot -> pending keys pointing at it
	pushed, received int
}

func newHeapModel(t *testing.T, n int, seed int64, maxDelay time.Duration, drop float64) *heapModel {
	q := newEventQueue(n, seed, 0, maxDelay, drop)
	return &heapModel{
		t: t, q: q,
		rng:           q.rng,
		dropRng:       q.dropRng,
		maxDelay:      int64(maxDelay),
		dropThreshold: q.dropThreshold,
		live:          map[uint32]int{},
	}
}

func (m *heapModel) dropped() bool {
	return m.dropThreshold > 0 && m.dropRng.next() < m.dropThreshold
}

func (m *heapModel) delay() int64 {
	return int64(m.rng.next() % (uint64(m.maxDelay) + 1))
}

// slotOf finds the body slot of the key the queue just pushed with seq.
func (m *heapModel) slotOf(seq uint64) uint32 {
	for _, k := range m.q.heap {
		if k.seq == seq {
			return k.slot
		}
	}
	m.t.Fatalf("no key with seq %d in the heap", seq)
	return 0
}

// expect records a pushed event and checks that its slot was free: a slot
// handed out while another key still points at it would alias two events.
func (m *heapModel) expect(ev event, fresh bool) {
	m.t.Helper()
	slot := m.slotOf(ev.seq)
	if fresh && m.live[slot] > 0 {
		m.t.Fatalf("slot %d handed out while %d keys still point at it", slot, m.live[slot])
	}
	m.live[slot]++
	m.pending = append(m.pending, refEvent{ev: ev, slot: slot})
	m.pushed++
}

func (m *heapModel) message(from, to int, boxes []mailbox) {
	m.t.Helper()
	msg := Message{From: model.ProcessID(from), To: model.ProcessID(to), Type: "u", Aux: int64(m.pushed), SentAt: model.Time(m.pushed)}
	ok := m.q.pushMessage(msg, &boxes[to])
	if m.dropped() {
		if ok {
			m.t.Fatal("pushMessage kept a message the drop stream discards")
		}
		return
	}
	if !ok {
		m.t.Fatal("pushMessage dropped a message the drop stream keeps")
	}
	base := m.q.vnow
	at := base + m.delay()
	m.seq++
	m.expect(event{at: at, seq: m.seq, kind: evMessage, sentAt: base, msg: msg, box: &boxes[to]}, true)
}

func (m *heapModel) broadcast(from int, boxes []mailbox) {
	m.t.Helper()
	tmpl := Message{From: model.ProcessID(from), Type: "b", Payload: m.pushed, SentAt: model.Time(1000 * m.pushed)}
	got, ok := m.q.pushBroadcast(tmpl, boxes)
	if !ok {
		m.t.Fatal("pushBroadcast refused on an open queue")
	}
	base := m.q.vnow
	want := 0
	for i := range boxes {
		if m.dropped() {
			continue
		}
		at := base + m.delay()
		m.seq++
		msg := tmpl
		msg.To = model.ProcessID(i)
		msg.SentAt = tmpl.SentAt + model.Time(i)
		m.expect(event{at: at, seq: m.seq, kind: evMessage, sentAt: base, msg: msg, box: &boxes[i]}, want == 0)
		want++
	}
	if got != want {
		m.t.Fatalf("pushBroadcast enqueued %d, model %d", got, want)
	}
}

func (m *heapModel) timer(tm *Timer, offset int) {
	m.t.Helper()
	at := m.q.vnow + int64(offset%7)*int64(time.Microsecond)
	m.q.scheduleTimer(tm, at)
	m.seq++
	m.expect(event{at: at, seq: m.seq, kind: evTimer, tm: tm}, true)
}

func (m *heapModel) crash(p int) {
	m.t.Helper()
	at := m.q.vnow + int64(p)*int64(time.Microsecond)
	m.q.pushCrash(model.ProcessID(p), at)
	m.seq++
	m.expect(event{at: at, seq: m.seq, kind: evCrash, msg: Message{To: model.ProcessID(p)}}, true)
}

// pop pops the queue's head and checks it field by field against the
// model's least pending event, then advances virtual time as the
// dispatcher would.
func (m *heapModel) pop() {
	m.t.Helper()
	best := 0
	for i, r := range m.pending {
		if r.ev.at < m.pending[best].ev.at || (r.ev.at == m.pending[best].ev.at && r.ev.seq < m.pending[best].ev.seq) {
			best = i
		}
	}
	want := m.pending[best]
	m.pending[best] = m.pending[len(m.pending)-1]
	m.pending = m.pending[:len(m.pending)-1]
	if slot := m.q.heap[0].slot; slot != want.slot {
		m.t.Fatalf("head key points at slot %d, model %d", slot, want.slot)
	}
	got := m.q.heapPopHead()
	if got != want.ev {
		m.t.Fatalf("pop %d diverged\n got: %+v\nwant: %+v", m.received, got, want.ev)
	}
	m.received++
	if m.live[want.slot]--; m.live[want.slot] == 0 {
		delete(m.live, want.slot)
	}
	if got.at > m.q.vnow {
		m.q.vnow = got.at
	}
	m.checkLive()
}

// liveBodies counts the slab entries some key still points at.
func liveBodies(q *eventQueue) int { return len(q.bodies) - len(q.free) }

func (m *heapModel) checkLive() {
	m.t.Helper()
	if got, want := liveBodies(m.q), len(m.live); got != want {
		m.t.Fatalf("%d live bodies, model %d", got, want)
	}
	if len(m.q.heap) != len(m.pending) {
		m.t.Fatalf("%d keys in the heap, model %d", len(m.q.heap), len(m.pending))
	}
}

// step performs one random operation: mostly pushes early, pops as often as
// pushes on average.
func (m *heapModel) step(r *rand.Rand, n int, boxes []mailbox, tms []*Timer, pushOnly bool) {
	op := r.Intn(10)
	if !pushOnly && op < 5 && len(m.pending) > 0 {
		m.pop()
		return
	}
	switch op % 5 {
	case 0, 1:
		m.message(r.Intn(n), r.Intn(n), boxes)
	case 2:
		m.broadcast(r.Intn(n), boxes)
	case 3:
		m.timer(tms[r.Intn(len(tms))], r.Intn(100))
	default:
		m.crash(r.Intn(n))
	}
	m.checkLive()
}

// TestEventHeapMatchesReferenceModel drives a randomized, seeded interleaving
// of every push kind and head pops through the key heap and its body slab,
// and checks each pop — for broadcast recipients down to To, SentAt, sentAt
// and the mailbox pointer — against a reference sorted by (at, seq). It also
// checks that a slab slot is never reused while a key points at it, that a
// drain leaves no live body behind, and that close() counts exactly the
// message keys still queued.
func TestEventHeapMatchesReferenceModel(t *testing.T) {
	for _, drop := range []float64{0, 0.3} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("drop=%g/seed=%d", drop, seed), func(t *testing.T) {
				const n = 7
				m := newHeapModel(t, n, seed, 50*time.Microsecond, drop)
				r := rand.New(rand.NewSource(seed))
				boxes := make([]mailbox, n)
				tms := []*Timer{new(Timer), new(Timer), new(Timer)}
				for i := 0; i < 2000; i++ {
					m.step(r, n, boxes, tms, false)
				}
				for len(m.pending) > 0 {
					m.pop()
				}
				if live := liveBodies(m.q); live != 0 {
					t.Fatalf("%d bodies still live after a drain", live)
				}
				for i := 0; i < 200; i++ {
					m.step(r, n, boxes, tms, true)
				}
				messages := 0
				for _, p := range m.pending {
					if p.ev.kind == evMessage {
						messages++
					}
				}
				if got := m.q.close(); got != messages {
					t.Fatalf("close() reported %d dropped messages, %d message keys were queued", got, messages)
				}
				if m.received == 0 || m.pushed <= m.received {
					t.Fatalf("degenerate run: pushed %d, popped %d", m.pushed, m.received)
				}
			})
		}
	}
}

// TestBroadcastStoresOneBody pins the compact event core's footprint: a
// broadcast to n=50 adds exactly one slab body, shared by its n keys, and
// the keys fit the presized key array without growing it.
func TestBroadcastStoresOneBody(t *testing.T) {
	const n = 50
	q := newEventQueue(n, 1, 0, 10*time.Microsecond, 0)
	defer q.close()
	boxes := make([]mailbox, n)
	keyCap := cap(q.heap)
	for round := 1; round <= 3; round++ {
		if got, ok := q.pushBroadcast(Message{Type: "b"}, boxes); !ok || got != n {
			t.Fatalf("round %d: enqueued %d, ok=%v", round, got, ok)
		}
		if keys, bodies := len(q.heap), liveBodies(q); keys != round*n || bodies != round {
			t.Fatalf("after %d broadcasts: %d keys over %d bodies, want %d over %d", round, keys, bodies, round*n, round)
		}
		if b := q.bodies[round-1]; b.refs != n || len(b.boxes) != n {
			t.Fatalf("body %d: refs=%d boxes=%d, want %d and %d", round-1, b.refs, len(b.boxes), n, n)
		}
	}
	if cap(q.heap) != keyCap {
		t.Fatalf("key array grew from %d to %d under 3n keys", keyCap, cap(q.heap))
	}
}

// TestHeapKeyIs24Bytes is a tripwire: the key heap's whole point is a small,
// pointer-free element, so a field added to heapKey must be a decision.
func TestHeapKeyIs24Bytes(t *testing.T) {
	if sz := unsafe.Sizeof(heapKey{}); sz != 24 {
		t.Fatalf("heapKey is %d bytes, want 24", sz)
	}
}
