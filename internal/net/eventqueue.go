package net

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"weakestfd/internal/model"
)

// eventKind discriminates the things the scheduler delivers: message
// deliveries, timer fires and scheduled crashes.
type eventKind uint8

const (
	evMessage eventKind = iota
	evTimer
	evCrash
)

// event is one delivery as the dispatcher sees it, materialised from a heap
// key and the body it points at when the key pops: at is the
// virtual-nanosecond delivery time, seq the enqueue sequence number that
// breaks ties FIFO. A message event carries the mailbox it resolves to,
// interned at enqueue time, so the dispatcher delivers without any
// per-message map lookup. A timer event carries its timer. A crash event
// reuses msg.To as the crashing process.
type event struct {
	at     int64
	seq    uint64
	kind   eventKind
	sentAt int64 // message events: the enqueue-time base (at - sentAt is the drawn delay)
	msg    Message
	tm     *Timer
	box    *mailbox
}

// heapKey is what the scheduler's min-heap actually orders: the (at, seq)
// pair plus the body slot it refers to and, for a broadcast body, the
// recipient index. It is 24 bytes and pointer-free, so a sift moves a few
// words instead of a whole event and the garbage collector never scans the
// heap's backing array.
type heapKey struct {
	at   int64
	seq  uint64
	slot uint32 // index into eventQueue.bodies
	idx  uint32 // broadcast recipient; 0 for single-recipient bodies
}

// eventBody is a slab entry shared by the keys that point at it. A unicast
// message, timer fire or crash owns one body through one key, and ev holds
// the whole event bar at and seq, which the key carries. A broadcast stores
// a single body for all its recipients: ev.msg is the template, boxes the
// recipients' mailboxes, and the key for recipient i reads as the template
// with To=i, SentAt=template.SentAt+i and box=&boxes[i] — the per-recipient
// contract of pushBroadcast. refs counts the keys still in the heap; the last
// one popped returns the slot to the free list.
type eventBody struct {
	ev    event
	boxes []mailbox // non-nil exactly for broadcast bodies
	refs  uint32
}

// splitmix64 is the cheap, statistically solid PRNG used to draw message
// delays. It lives inside the event queue and is only touched under the
// queue's lock, so there is no separate RNG mutex on the send path.
type splitmix64 struct{ x uint64 }

func (s *splitmix64) next() uint64 {
	s.x += 0x9e3779b97f4a7c15
	z := s.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// eventQueue is the discrete-event core of the network: a min-heap of
// (at, seq) keys over a slab of event bodies, drained by a single dispatcher
// goroutine.
//
// The queue never waits in wall-clock time: popping an event advances the
// virtual clock to the event's timestamp, so a 200µs injected delay reorders
// messages exactly as it would in real time but costs nothing. Message
// events are stamped now+delay, so a delay larger than a timer deadline
// really does land after that timer fires — delay distributions keep their
// adversarial meaning. During a Freeze the clock is still, so a frozen batch
// shares one base time and its delivery order is exactly the order obtained
// by sorting (delay, enqueue-seq) — deterministic given a seed, independent
// of goroutine scheduling. Timer events carry absolute virtual deadlines and
// are what actually moves the virtual clock forward.
type eventQueue struct {
	mu      sync.Mutex
	heap    []heapKey   // min-heap by (at, seq); hand-rolled to avoid interface boxing
	bodies  []eventBody // slab the keys point into
	free    []uint32    // body slots with no live key, reused LIFO
	seq     uint64
	leases  uint64 // timer lease ids handed out by this queue (run-local)
	rng     splitmix64
	dropRng splitmix64 // separate stream so drop decisions never shift delay draws
	vnow    int64      // virtual now (ns); written under mu by the dispatcher

	minDelay, maxDelay int64  // message delay range, ns
	dropThreshold      uint64 // drop a message when dropRng.next() < threshold; 0 = reliable

	held   bool // dispatch paused by Network.Freeze
	closed bool

	vnowAtomic atomic.Int64  // mirror of vnow for lock-free reads
	notify     chan struct{} // poked on push
	quit       chan struct{} // closed on close()
}

func newEventQueue(n int, seed int64, minDelay, maxDelay time.Duration, dropRate float64) *eventQueue {
	q := &eventQueue{
		heap:     make([]heapKey, 0, eventHeapCap(n)),
		rng:      splitmix64{x: uint64(seed)},
		dropRng:  splitmix64{x: uint64(seed) ^ 0xd1b54a32d192ed03},
		minDelay: int64(minDelay),
		maxDelay: int64(maxDelay),
		notify:   make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	if dropRate > 0 {
		q.dropThreshold = dropThresholdFor(dropRate)
	}
	return q
}

// eventHeapCap sizes the initial backing array of heap keys. The queue's
// high-water mark is set by broadcast storms — every participant reacting to
// one round of traffic with a broadcast of its own enqueues O(n²) keys
// before the dispatcher drains them — so growing the key array from zero by
// append-doubling re-copies ~2× the peak on every fresh network. Pre-sizing
// to n² keys (24 bytes each) removes that churn; the clamp keeps tiny test
// networks cheap and bounds the up-front cost at large n, where one further
// doubling round is acceptable. The body slab needs no presize: a broadcast
// adds one body for all its n keys, so under a broadcast storm the slab
// stays O(n) deep while the keys reach O(n²).
func eventHeapCap(n int) int {
	const minCap, maxCap = 64, 32768
	c := n * n
	if c < minCap {
		return minCap
	}
	if c > maxCap {
		return maxCap
	}
	return c
}

// dropThresholdFor converts a drop probability into the uint64 comparison
// threshold of pushMessage: a message is dropped when dropRng.next() falls
// below it. The scaling to the full 64-bit space uses math.Ldexp (an exact
// exponent shift, so rate*2⁶⁴ never rounds), and the result is clamped below
// 2⁶⁴ explicitly: a product that reaches 2⁶⁴ would make the float→uint64
// conversion implementation-defined — on some targets it yields 0, turning a
// near-total-loss link into a fully reliable one.
func dropThresholdFor(dropRate float64) uint64 {
	scaled := math.Ldexp(dropRate, 64)
	if scaled >= math.Ldexp(1, 64) {
		return ^uint64(0)
	}
	return uint64(scaled)
}

// virtualNow returns the current virtual time.
func (q *eventQueue) virtualNow() time.Duration {
	return time.Duration(q.vnowAtomic.Load())
}

// drawDelay samples a delivery delay from [minDelay, maxDelay]. Caller holds
// q.mu.
func (q *eventQueue) drawDelay() int64 {
	if q.maxDelay <= q.minDelay {
		return q.minDelay
	}
	span := uint64(q.maxDelay-q.minDelay) + 1
	return q.minDelay + int64(q.rng.next()%span)
}

// pushMessage enqueues a delivery of msg into box at now+delay. It reports
// false if the queue is already closed or the lossy-link knob dropped the
// message. The delay is drawn under the queue lock, so enqueue order
// determines RNG consumption order; during a Freeze the virtual clock is
// necessarily still, so a frozen batch shares one base time and its delivery
// order is exactly the (delay, seq) sort. Drop decisions consume a dedicated
// RNG stream, so the delay sequence of the surviving messages is unchanged.
func (q *eventQueue) pushMessage(msg Message, box *mailbox) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	if q.dropThreshold > 0 && q.dropRng.next() < q.dropThreshold {
		q.mu.Unlock()
		return false
	}
	base := q.vnow
	at := base + q.drawDelay()
	q.seq++
	q.heapPush(at, eventBody{ev: event{kind: evMessage, sentAt: base, msg: msg, box: box}})
	q.mu.Unlock()
	q.poke(q.notify)
	return true
}

// pushBroadcast enqueues one delivery of tmpl per process under a single lock
// acquisition: recipient i gets tmpl with To=i, SentAt=tmpl.SentAt+i, and its
// mailbox resolved from boxes[i]. It returns the number of deliveries
// enqueued (the rest were dropped by the lossy-link knob) and ok=false if the
// queue was already closed.
//
// Determinism contract: the RNG consumption per recipient — drop draw first
// (only when losses are enabled), then, for survivors only, one delay draw
// and one sequence number — is exactly the per-call order of pushMessage, in
// recipient order 0..n-1. A broadcast therefore consumes the seeded streams
// identically to the n-call serial loop it replaces, and the resulting
// (deliveryTime, seq) schedule is byte-identical; only the number of lock
// acquisitions and heap operations changes. All recipients share one body
// (see eventBody), so the fan-out costs one slab entry plus one 24-byte key
// per survivor. The keys are appended and the heap re-established in one
// pass: a full bottom-up heapify when the run is large relative to the heap
// (container/heap's Init strategy, O(len) beats n× sift-up's O(n·log len)),
// per-element sift-up otherwise.
func (q *eventQueue) pushBroadcast(tmpl Message, boxes []mailbox) (enqueued int, ok bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, false
	}
	base := q.vnow
	start := len(q.heap)
	slot := q.newBody(eventBody{ev: event{kind: evMessage, sentAt: base, msg: tmpl}, boxes: boxes})
	for i := range boxes {
		if q.dropThreshold > 0 && q.dropRng.next() < q.dropThreshold {
			continue
		}
		at := base + q.drawDelay()
		q.seq++
		q.heap = append(q.heap, heapKey{at: at, seq: q.seq, slot: slot, idx: uint32(i)})
	}
	enqueued = len(q.heap) - start
	if enqueued > 0 {
		q.bodies[slot].refs = uint32(enqueued)
		q.restoreAppended(start)
	} else {
		q.freeBody(slot)
	}
	q.mu.Unlock()
	if enqueued > 0 {
		q.poke(q.notify)
	}
	return enqueued, true
}

// restoreAppended re-establishes the heap invariant after a run of keys was
// appended at index start. For a small run each element sifts up; for a run
// comparable to the heap size a full bottom-up heapify is cheaper (O(len)
// versus O(run·log len)). Caller holds q.mu.
func (q *eventQueue) restoreAppended(start int) {
	n := len(q.heap)
	run := n - start
	if run*bits.Len(uint(n)) > n {
		for i := n/2 - 1; i >= 0; i-- {
			q.siftDown(i, n)
		}
		return
	}
	for i := start; i < n; i++ {
		q.siftUp(i)
	}
}

// pushCrash enqueues a crash of process p at the absolute virtual time at. The
// dispatcher executes the crash inline when the event pops, so a scheduled
// crash is ordered against message deliveries and timer fires exactly by
// (at, seq) — deterministic for a seeded scenario.
func (q *eventQueue) pushCrash(p model.ProcessID, at int64) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.seq++
	q.heapPush(at, eventBody{ev: event{kind: evCrash, msg: Message{To: p}}})
	q.mu.Unlock()
	q.poke(q.notify)
}

// scheduleTimer enqueues a fire of timer t at the absolute virtual time at.
func (q *eventQueue) scheduleTimer(t *Timer, at int64) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.seq++
	q.heapPush(at, eventBody{ev: event{kind: evTimer, tm: t}})
	q.mu.Unlock()
	q.poke(q.notify)
}

// nextLease hands out a run-local timer lease id.
func (q *eventQueue) nextLease() uint64 {
	q.mu.Lock()
	q.leases++
	id := q.leases
	q.mu.Unlock()
	return id
}

func (q *eventQueue) poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// gapYields is how many scheduler yields popStep grants before letting
// virtual time jump forward to a timer deadline or a scheduled crash; see
// popStep.
const gapYields = 4

// stepResult is what popStep tells the dispatcher to do next.
type stepResult uint8

const (
	stepClosed stepResult = iota // queue closed; dispatcher exits
	stepGrant                    // ready tasks pending; run them to quiescence
	stepEvent                    // one event popped; deliver it
)

// popStep blocks until there is work and hands the dispatcher exactly one
// unit of it — a pending task grant (which always takes priority, so a
// delivery's wake cascade settles before the next event) or a single popped
// event with the virtual clock advanced to its timestamp. Because the network
// is provably quiescent whenever the ready queue is empty, tasks need no
// yield before the clock jumps to a timer deadline: there is no runnable task
// to outrun.
//
// The one bounded yield is for plain goroutines that have not yet reached
// AdoptTask (tests and benchmarks calling protocols directly): on
// GOMAXPROCS=1 the grant handoffs can starve such a caller for a whole
// preemption timeslice while virtual time gallops through its poll ticks, so
// the dispatcher yields a few times before jumping the clock. Such callers
// are never part of a trace group, so the yield does not touch the trace
// contract. popStep must only be called by the single dispatcher goroutine.
func (q *eventQueue) popStep(s *stepper) (event, stepResult) {
	yields := 0
	for {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return event{}, stepClosed
		}
		if q.held {
			q.mu.Unlock()
			select {
			case <-q.notify:
			case <-q.quit:
				return event{}, stepClosed
			}
			continue
		}
		if s.readyPending() {
			q.mu.Unlock()
			return event{}, stepGrant
		}
		if len(q.heap) == 0 {
			q.mu.Unlock()
			select {
			case <-q.notify:
			case <-q.quit:
				return event{}, stepClosed
			}
			continue
		}
		head := q.heap[0]
		if head.at > q.vnow && q.kindOf(head) != evMessage {
			if yields < gapYields {
				yields++
				q.mu.Unlock()
				runtime.Gosched()
				continue
			}
		}
		ev := q.heapPopHead()
		if ev.at > q.vnow {
			q.vnow = ev.at
			q.vnowAtomic.Store(ev.at)
		}
		q.mu.Unlock()
		return ev, stepEvent
	}
}

// setHeld pauses or resumes dispatch; see Network.Freeze.
func (q *eventQueue) setHeld(held bool) {
	q.mu.Lock()
	q.held = held
	q.mu.Unlock()
	if !held {
		q.poke(q.notify)
	}
}

// close shuts the queue down and returns the number of message keys it
// discarded, so the caller can keep sent == delivered + dropped balanced.
func (q *eventQueue) close() int {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0
	}
	q.closed = true
	dropped := 0
	for _, k := range q.heap {
		if q.kindOf(k) == evMessage {
			dropped++
		}
	}
	q.heap, q.bodies, q.free = nil, nil, nil
	q.mu.Unlock()
	close(q.quit)
	return dropped
}

// --- min-heap of heapKey over the body slab, ordered by (at, seq) ---
//
// Hand-rolled instead of container/heap so keys stay values in the backing
// slice: no interface boxing, hence no per-message allocation on the delivery
// path. Sifts carry the moving key in a local and shift the others into the
// hole, one 24-byte store per level.

func keyLess(a, b heapKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// kindOf reports the kind of the event key k points at.
func (q *eventQueue) kindOf(k heapKey) eventKind { return q.bodies[k.slot].ev.kind }

// newBody stores b in a free slab slot, or a new one, and returns the slot.
func (q *eventQueue) newBody(b eventBody) uint32 {
	if n := len(q.free); n > 0 {
		slot := q.free[n-1]
		q.free = q.free[:n-1]
		q.bodies[slot] = b
		return slot
	}
	q.bodies = append(q.bodies, b)
	return uint32(len(q.bodies) - 1)
}

// freeBody clears a slot (releasing its payload references) and returns it
// to the free list.
func (q *eventQueue) freeBody(slot uint32) {
	q.bodies[slot] = eventBody{}
	q.free = append(q.free, slot)
}

// heapPush stores body b under one new key at time at, drawing the key's
// sequence number from q.seq, which the caller has just advanced.
func (q *eventQueue) heapPush(at int64, b eventBody) {
	b.refs = 1
	q.heap = append(q.heap, heapKey{at: at, seq: q.seq, slot: q.newBody(b)})
	q.siftUp(len(q.heap) - 1)
}

func (q *eventQueue) siftUp(i int) {
	k := q.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !keyLess(k, q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = k
}

func (q *eventQueue) siftDown(i, n int) {
	k := q.heap[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && keyLess(q.heap[r], q.heap[c]) {
			c = r
		}
		if !keyLess(q.heap[c], k) {
			break
		}
		q.heap[i] = q.heap[c]
		i = c
	}
	q.heap[i] = k
}

// heapPopHead removes the head key and returns its event, built from the
// body it points at. The last key out of a body frees its slot. Caller holds
// q.mu and has checked the heap is non-empty.
func (q *eventQueue) heapPopHead() event {
	k := q.heap[0]
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.siftDown(0, n)
	}
	b := &q.bodies[k.slot]
	ev := b.ev
	ev.at, ev.seq = k.at, k.seq
	if b.boxes != nil {
		ev.msg.To = model.ProcessID(k.idx)
		ev.msg.SentAt += model.Time(k.idx)
		ev.box = &b.boxes[k.idx]
	}
	b.refs--
	if b.refs == 0 {
		q.freeBody(k.slot)
	}
	return ev
}
