package net

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"iter"
	"sync"
	"sync/atomic"
)

// This file implements run-to-quiescence stepping, the deterministic
// goroutine-step scheduler that extends the byte-reproducibility contract
// from schedule-determined outcomes to full traces.
//
// Every scheduler-visible goroutine in the network is a Task, run as an
// iter.Pull coroutine that only the dispatcher resumes, so exactly one of the
// dispatcher or a single task runs at any moment — on the dispatcher's own
// thread, with no channel handoff. The dispatcher pops ONE event, delivers it,
// then resumes every task the delivery woke — in deterministic FIFO wake
// order, one at a time, each until it parks in Await (a coroutine yield) or
// exits (the coroutine returns) — before popping the next event. The ready
// queue being empty IS the proof that every task is parked.
//
// Because task execution is serialized, every event-queue push (sequence
// number, RNG draw) and every logical-clock tick happens in an order that is
// a pure function of the seed and the initial schedule — which is what makes
// the trace fingerprint below byte-reproducible, crash events included.
//
// The same serialization lets the scheduler's own state — the ready queue,
// every task's state and wake credits, every timer's owner and credits, the
// task lists of the endpoints and the escape registrations — be plain fields
// owned by the dispatcher's thread: the dispatcher, the task it is running,
// and the Handle-mode handlers it calls. Nothing on that thread takes a lock
// to grant, park, wake or fire. A goroutine outside the step discipline never
// touches that state; it hands its work to the dispatcher instead (see
// stepper.inbox), under the queue lock popStep takes anyway.

// taskState is the lifecycle of a Task with respect to the dispatcher.
type taskState uint8

const (
	// taskReady: woken (or newly spawned) and queued for a grant.
	taskReady taskState = iota + 1
	// taskGranted: running — resumed by the dispatcher, or escaped (see
	// Await) and running to its exit outside the step discipline.
	taskGranted
	// taskParked: yielded in Await.
	taskParked
	// taskDone: exited.
	taskDone
)

// Task is one scheduler-visible goroutine: a protocol runner, a detector
// loop, a register server — anything that takes steps between event
// deliveries. Tasks are created with Network.Go / Network.GoGroup, or by Call
// for a plain goroutine that runs one operation under the step discipline.
type Task struct {
	id    uint64
	name  string
	ep    *Endpoint
	s     *stepper
	group bool

	// next resumes the coroutine until its next park or its exit; yield,
	// called from inside the coroutine, parks it. next is called by the
	// dispatcher only — or, for a task spawned once Close's teardown has
	// begun, by the goroutine that spawned it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// Owned by the dispatcher's thread.
	state   taskState
	escaped bool
	wakes   uint64     // wake credits issued
	seen    uint64     // wake credits consumed by Await
	watch   *doneWatch // Done registration of the context of the latest park
}

// Wake credits the task with one wakeup. If it is parked it joins the ready
// queue (FIFO — wakers are serialized by the step discipline, so the order is
// deterministic); if it is running the credit makes its next Await return
// immediately, so a wakeup issued between a condition check and the park can
// never be lost. Wake on a done or already-ready task is a no-op beyond the
// credit.
//
// Wake must be called on the dispatcher's thread: by a task or by a
// Handle-mode handler. A goroutine outside the step discipline uses
// WakeExternal.
func (t *Task) Wake() {
	if t.state == taskDone {
		return
	}
	t.wakes++
	if t.state != taskParked {
		return
	}
	t.state = taskReady
	t.s.ready = append(t.s.ready, t)
}

// WakeExternal is Wake for a goroutine outside the step discipline — a Stop
// method or a test. It hands the wake to the dispatcher, which applies it
// before its next grant or event; after Close it does nothing, since Close
// runs every task to its exit anyway.
func (t *Task) WakeExternal() {
	t.s.q.post(handoff{kind: handWake, t: t})
}

// Await is the park point: it yields back to the dispatcher and returns when
// the dispatcher resumes the task after the next Wake. If a wake credit is
// already pending (issued while the task was running) it returns immediately
// without yielding. Callers use the condition-recheck idiom:
//
//	for {
//		if done() { return }
//		t.Await(ctx)
//	}
//
// ctx is the escape hatch for wall-clock teardown (the scenario timeout):
// when it is cancelled, the dispatcher resumes the task out of turn, the
// trace is marked tainted, and every subsequent Await returns immediately so
// the caller's next condition check can observe ctx.Err() and unwind. A nil
// ctx is allowed; Network.Close is then the only escape.
func (t *Task) Await(ctx context.Context) {
	if t.escaped || t.seen < t.wakes {
		t.seen = t.wakes
		return
	}
	w := t.watchFor(ctx)
	t.watch = w
	if w != nil && w.fired.Load() {
		t.escaped = true
		t.s.taint(t)
		return
	}
	t.state = taskParked
	t.yield(struct{}{})
	t.seen = t.wakes
}

// watchFor returns the Done registration for ctx, or nil when ctx can never
// be cancelled. The task caches its latest registration, so the loop of a
// task that waits on one context resolves it once.
func (t *Task) watchFor(ctx context.Context) *doneWatch {
	if ctx == nil {
		return nil
	}
	d := ctx.Done()
	if d == nil {
		return nil
	}
	if w := t.watch; w != nil && w.done == d {
		return w
	}
	return t.s.watchDone(ctx, d, t.group)
}

// escapeIfFired resumes t out of turn if it is parked on a context whose
// registration fired (see Await). Called by the dispatcher only.
func (t *Task) escapeIfFired() {
	if t.state == taskParked && t.watch != nil && t.watch.fired.Load() {
		t.resumeEscaped()
	}
}

// finish runs t to its exit, escaped, if it has not exited yet — Close's
// teardown, which includes tasks that never had a first grant.
func (t *Task) finish() {
	if t.state == taskParked || t.state == taskReady {
		t.resumeEscaped()
	}
}

// resumeEscaped marks t escaped, taints the trace and resumes t, which runs
// until it exits: an escaped task's Await never parks.
func (t *Task) resumeEscaped() {
	t.escaped = true
	t.state = taskGranted
	t.s.taint(t)
	t.next()
}

// exit ends the task; the coroutine returns right after it. A cleanly
// exiting task records its exit into the trace; an escaped exit only updates
// the group countdown, whose finalization then reports the taint.
func (t *Task) exit() {
	t.state = taskDone
	s := t.s
	if t.escaped {
		s.groupExit(t, false)
		return
	}
	s.recordExit(t)
	s.groupExit(t, true)
}

// taskCtxKey carries a Task through a context so protocol entry points
// (Propose, Vote, Read, Write, ...) reach their caller's task without
// signature changes.
type taskCtxKey struct{}

// WithTask returns a context carrying t. scenario.Run uses it to hand each
// runner its task; Call uses it so nested protocol calls run on the caller's
// task instead of spawning another.
func WithTask(ctx context.Context, t *Task) context.Context {
	return context.WithValue(ctx, taskCtxKey{}, t)
}

// TaskFrom returns the task carried by ctx, or nil for a caller outside the
// step discipline.
func TaskFrom(ctx context.Context) *Task {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(taskCtxKey{}).(*Task)
	return t
}

// Call runs op on a task of ep's process and returns its result. A caller
// whose ctx already carries a task runs op inline, on that task. A plain
// goroutine — a benchmark or package test calling a protocol directly — gets
// a new task for op and blocks until op returns, so every step of the
// operation takes place under the step discipline: without it the caller's
// sends would race the dispatcher's steps.
func Call[T any](ctx context.Context, ep *Endpoint, name string, op func(context.Context) (T, error)) (T, error) {
	if TaskFrom(ctx) != nil {
		return op(ctx)
	}
	var (
		res T
		err error
	)
	done := make(chan struct{})
	ep.net.spawn(ep, name, false, func(t *Task) {
		defer close(done)
		res, err = op(WithTask(ctx, t))
	})
	<-done
	return res, err
}

// TaskWaiter is a single-waiter wake registration: the waiting side
// registers its task around the wait loop, the notifying side (typically a
// Handle-mode handler running on the dispatcher) calls Wake when the waited-on
// state changes. Like Task.Wake, every method must be called on the
// dispatcher's thread.
type TaskWaiter struct {
	t *Task
}

// Set registers t as the waiter.
func (w *TaskWaiter) Set(t *Task) { w.t = t }

// Clear unregisters the waiter.
func (w *TaskWaiter) Clear() { w.t = nil }

// Wake wakes the registered waiter, if any.
func (w *TaskWaiter) Wake() {
	if w.t != nil {
		w.t.Wake()
	}
}

// TraceStats are the step-trace shape counters: cheap, schedule-determined
// aggregates of a finalized trace, suitable for bucketing into exploration
// novelty signatures without dragging the full fingerprint (which changes on
// every config perturbation) along.
type TraceStats struct {
	Events   int64 // events delivered before the trace boundary
	Messages int64
	Timers   int64
	Crashes  int64
	Grants   int64 // task steps granted
	// TaintReason is why the trace was forfeited, when it was: the first
	// wall-clock escape that tainted the run, naming the task and process.
	// Empty for a clean trace. When set, the counters above are zero and the fingerprint is
	// empty — the reason is the only thing a tainted run can honestly report.
	TaintReason string
}

// Trace record ops: the three record types of the step trace, using the same
// byte the digest encoding leads with.
const (
	TraceOpEvent byte = 'E' // one delivered event
	TraceOpGrant byte = 'G' // one task step grant
	TraceOpExit  byte = 'X' // one clean task exit
)

// Trace event kinds for TraceOpEvent records, matching the scheduler's
// internal event kinds (and the byte the digest encoding uses).
const (
	TraceKindMessage = byte(evMessage)
	TraceKindTimer   = byte(evTimer)
	TraceKindCrash   = byte(evCrash)
)

// TraceRecord is one record of the step trace — exactly what the trace digest
// hashes, in structured form. The stream of TraceRecords a run produces is
// trace-tier: a pure function of (seed, config), byte-identical across runs. Fields beyond Op are populated per record type:
//
//   - TraceOpEvent: Kind, At, Seq, then per kind — message: From, To,
//     Instance, Type; timer: Tid (the run-local lease id); crash: To.
//   - TraceOpGrant, TraceOpExit: Task (the granted/exiting task's id).
//
// SentAt, Proc and Group are observational extras for streaming analyzers
// (internal/probe): they are fully determined by the hashed fields plus the
// seeded schedule, so they ride outside AppendHash — the digest encoding, and
// with it every recorded fingerprint, is unchanged by their existence.
//
//   - SentAt (message events): the virtual time the message was enqueued, so
//     At-SentAt is the delay the seeded RNG actually drew for this delivery.
//   - Proc (grants and exits): the process id owning the granted/exiting task.
//   - Group (exits): whether the exiting task belongs to the trace group —
//     i.e. whether this exit is a protocol runner's decision point.
type TraceRecord struct {
	Op       byte
	Kind     byte
	At       int64
	Seq      uint64
	From     uint64
	To       uint64
	Instance string
	Type     string
	Tid      uint64
	Task     uint64
	SentAt   int64
	Proc     uint64
	Group    bool
}

// AppendHash appends the record's trace-digest encoding to b — the exact
// bytes the streaming SHA-256 consumes for this record. Journal verification
// recomputes fingerprints through this single definition, so the journal and
// the hash cannot drift apart.
func (r *TraceRecord) AppendHash(b []byte) []byte {
	switch r.Op {
	case TraceOpEvent:
		b = append(b, TraceOpEvent, r.Kind)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.At))
		b = binary.LittleEndian.AppendUint64(b, r.Seq)
		switch r.Kind {
		case TraceKindMessage:
			b = binary.LittleEndian.AppendUint64(b, r.From)
			b = binary.LittleEndian.AppendUint64(b, r.To)
			b = binary.LittleEndian.AppendUint64(b, uint64(len(r.Instance)))
			b = append(b, r.Instance...)
			b = binary.LittleEndian.AppendUint64(b, uint64(len(r.Type)))
			b = append(b, r.Type...)
		case TraceKindTimer:
			b = binary.LittleEndian.AppendUint64(b, r.Tid)
		case TraceKindCrash:
			b = binary.LittleEndian.AppendUint64(b, r.To)
		}
	case TraceOpGrant, TraceOpExit:
		b = append(b, r.Op)
		b = binary.LittleEndian.AppendUint64(b, r.Task)
	}
	return b
}

// TraceRecorder observes the step trace record-by-record, beside the digest:
// every record the trace hash sees is passed to Record, in hash order,
// before delivery/grant takes effect. Every call is made on the dispatcher's
// thread (the dispatcher writes event and grant records, a cleanly exiting
// task it resumed writes its exit record), so implementations need no
// locking — but Record runs on the scheduler's critical path and must not
// block.
type TraceRecorder interface {
	Record(TraceRecord)
}

// stepper is the run-to-quiescence scheduler state owned by a Network: the
// deterministic ready queue, the wall-clock escape registrations and the
// streaming trace digest.
type stepper struct {
	q *eventQueue

	// Owned by the dispatcher's thread.
	ready     []*Task
	readyHead int
	nextID    uint64

	// Wall-clock escapes: one context.AfterFunc per distinct Done channel a
	// task has parked on. A firing registration sets escapes and pokes the
	// dispatcher, which resumes the tasks parked on it (see popStep). The
	// watches map is owned by the dispatcher's thread.
	escapes atomic.Bool
	watches map[<-chan struct{}]*doneWatch

	// Trace digest. Every record is written on the dispatcher's thread —
	// events and grants by the dispatcher itself, exits by a task it resumed —
	// so the writes are serialized; no lock. rec, when non-nil, observes the
	// same record stream.
	tracing   atomic.Bool
	finalized atomic.Bool
	tainted   atomic.Bool
	digest    hash.Hash
	buf       []byte // scratch for one record's encoding, reused
	stats     TraceStats
	rec       TraceRecorder

	// taintReason is the first escape's description (first-wins: later
	// escapes are downstream of the first cut).
	taintMu     sync.Mutex
	taintReason string

	groupMu    sync.Mutex
	groupLeft  int
	groupDone  chan struct{}
	final      string
	finalStats TraceStats
}

// doneWatch is the escape registration for one Done channel.
type doneWatch struct {
	done  <-chan struct{}
	fired atomic.Bool // the AfterFunc ran: the context is cancelled
	group bool        // a trace-group task parked on it; dispatcher-owned
	stop  func() bool // unregisters the AfterFunc
}

func newStepper(q *eventQueue, rec TraceRecorder) *stepper {
	return &stepper{
		q:         q,
		digest:    sha256.New(),
		groupDone: make(chan struct{}),
		rec:       rec,
	}
}

// watchDone returns the registration for ctx's Done channel d, creating it
// on first use. The tasks of one operation share a Done channel (WithTask
// only adds a value), so a run registers once per context, not per task.
func (s *stepper) watchDone(ctx context.Context, d <-chan struct{}, group bool) *doneWatch {
	w := s.watches[d]
	if w == nil {
		if s.watches == nil {
			s.watches = make(map[<-chan struct{}]*doneWatch)
		}
		w = &doneWatch{done: d}
		w.stop = context.AfterFunc(ctx, func() {
			w.fired.Store(true)
			s.escapes.Store(true)
			s.q.poke(s.q.notify)
		})
		s.watches[d] = w
	}
	w.group = w.group || group
	return w
}

// groupContextDone reports whether a context a trace-group task parked on
// has been cancelled.
func (s *stepper) groupContextDone() bool {
	for _, w := range s.watches {
		if !w.group {
			continue
		}
		select {
		case <-w.done:
			return true
		default:
		}
	}
	return false
}

// stopWatches unregisters every escape registration; Close calls it once no
// task is left to escape.
func (s *stepper) stopWatches() {
	for _, w := range s.watches {
		w.stop()
	}
}

// taint forfeits the trace, recording why (first-wins). The reason names the
// escaping task and its process — the diagnostic a tainted journal surfaces
// instead of a confusing divergence.
func (s *stepper) taint(t *Task) {
	s.taintWith(fmt.Sprintf("wall-clock escape: task %q (process %d) resumed outside the step discipline (context cancelled or network closed)", t.name, int(t.ep.id)))
}

func (s *stepper) taintWith(reason string) {
	s.tainted.Store(true)
	s.taintMu.Lock()
	if s.taintReason == "" {
		s.taintReason = reason
	}
	s.taintMu.Unlock()
}

// handoffKind names the work a goroutine outside the step discipline hands
// to the dispatcher.
type handoffKind uint8

const (
	handSpawn handoffKind = iota // queue a new task for its first grant
	handWake                     // Task.WakeExternal
	handCrash                    // wake the tasks of a process Network.Crash killed
)

// handoff is one unit of work in the dispatcher's inbox.
type handoff struct {
	kind handoffKind
	t    *Task
	ep   *Endpoint
}

// apply performs the handed-off work on the dispatcher's thread.
func (s *stepper) apply(h handoff) {
	switch h.kind {
	case handSpawn:
		t := h.t
		s.nextID++
		t.id = s.nextID
		t.ep.tasks = append(t.ep.tasks, t)
		s.ready = append(s.ready, t)
	case handWake:
		h.t.Wake()
	case handCrash:
		h.ep.wakeTasks()
	}
}

// readyPending reports whether any task awaits a grant.
func (s *stepper) readyPending() bool { return s.readyHead < len(s.ready) }

// popReady removes and returns the oldest ready task, or nil.
func (s *stepper) popReady() *Task {
	if s.readyHead >= len(s.ready) {
		return nil
	}
	t := s.ready[s.readyHead]
	s.ready[s.readyHead] = nil
	s.readyHead++
	if s.readyHead == len(s.ready) {
		s.ready = s.ready[:0]
		s.readyHead = 0
	}
	return t
}

// runReady grants every ready task, one at a time, in FIFO order: each grant
// resumes the task's coroutine, which returns here when the task parks or
// exits. It returns only when the ready queue is empty, i.e. every task is
// parked and it is sound to pop the next event. Called only by the
// dispatcher.
func (s *stepper) runReady() {
	for {
		t := s.popReady()
		if t == nil {
			return
		}
		if t.state != taskReady {
			// Escaped (or exited) between wake and grant.
			continue
		}
		t.state = taskGranted
		s.recordGrant(t)
		t.next()
	}
}

// beginTraceGroup arms trace recording and declares that n group tasks
// (Network.GoGroup) will exit before the trace is finalized. The scenario
// harness registers its n runners as the group: the trace boundary is the
// last runner's exit — a deterministic trace point — rather than "whenever
// the driver goroutine happened to look", which would cut the digest at a
// wall-clock race.
func (s *stepper) beginTraceGroup(n int) {
	s.groupMu.Lock()
	s.groupLeft = n
	s.groupMu.Unlock()
	s.tracing.Store(true)
}

// groupExit retires one group task. When the last one exits the trace is
// finalized: if every exit was clean, no escape tainted the run and no
// context a group task parked on was cancelled, the digest is snapshotted;
// otherwise the fingerprint stays empty. A cancelled context taints even a
// clean exit: a task that saw ctx.Err() on a granted step unwound at a point
// the wall clock chose. groupDone is closed either way, releasing
// TraceResult.
func (s *stepper) groupExit(t *Task, clean bool) {
	if !t.group {
		return
	}
	s.groupMu.Lock()
	s.groupLeft--
	last := s.groupLeft == 0
	s.groupMu.Unlock()
	if !last {
		return
	}
	if clean && !s.tainted.Load() && s.groupContextDone() {
		s.taintWith(fmt.Sprintf("wall-clock escape: a context the trace group waits on was cancelled before task %q (process %d) exited", t.name, int(t.ep.id)))
	}
	if clean && !s.tainted.Load() {
		s.groupMu.Lock()
		s.final = hex.EncodeToString(s.digest.Sum(nil))
		s.finalStats = s.stats
		s.groupMu.Unlock()
	} else {
		// A tainted trace keeps nothing but the reason it was forfeited.
		s.taintMu.Lock()
		reason := s.taintReason
		s.taintMu.Unlock()
		if reason == "" {
			reason = "trace tainted: a group task exited on an escape path"
		}
		s.groupMu.Lock()
		s.finalStats = TraceStats{TaintReason: reason}
		s.groupMu.Unlock()
	}
	s.finalized.Store(true)
	close(s.groupDone)
}

// record hashes one trace record and forwards it to the attached recorder,
// if any. The digest and the recorder consume the identical record by
// construction — AppendHash is the single encoding definition.
func (s *stepper) record(r *TraceRecord) {
	s.buf = r.AppendHash(s.buf[:0])
	s.digest.Write(s.buf)
	if s.rec != nil {
		s.rec.Record(*r)
	}
}

// recordEvent hashes one delivered event into the trace: kind, timestamp,
// sequence number and the message envelope's identifying fields. Payloads are
// deliberately excluded — rendering arbitrary values could hash pointer
// representations. Called only by the dispatcher, before delivery.
func (s *stepper) recordEvent(ev *event) {
	if !s.tracing.Load() || s.finalized.Load() {
		return
	}
	s.stats.Events++
	r := TraceRecord{Op: TraceOpEvent, Kind: byte(ev.kind), At: int64(ev.at), Seq: ev.seq}
	switch ev.kind {
	case evMessage:
		s.stats.Messages++
		r.From = uint64(ev.msg.From)
		r.To = uint64(ev.msg.To)
		r.Instance = ev.msg.Instance
		r.Type = ev.msg.Type
		r.SentAt = ev.sentAt
	case evTimer:
		s.stats.Timers++
		r.Tid = ev.tm.id
	case evCrash:
		s.stats.Crashes++
		r.To = uint64(ev.msg.To)
	}
	s.record(&r)
}

// recordGrant hashes one task step grant. Called only by the dispatcher.
func (s *stepper) recordGrant(t *Task) {
	if !s.tracing.Load() || s.finalized.Load() {
		return
	}
	s.stats.Grants++
	s.record(&TraceRecord{Op: TraceOpGrant, Task: t.id, Proc: uint64(t.ep.id)})
}

// recordExit hashes a clean task exit. Called by the exiting task, on the
// dispatcher's thread.
func (s *stepper) recordExit(t *Task) {
	if !s.tracing.Load() || s.finalized.Load() {
		return
	}
	s.record(&TraceRecord{Op: TraceOpExit, Task: t.id, Proc: uint64(t.ep.id), Group: t.group})
}

// Go spawns fn as a scheduler-visible task owned by ep: it takes steps only
// when the dispatcher resumes it, parking in Await between them.
func (nw *Network) Go(ep *Endpoint, name string, fn func(*Task)) *Task {
	return nw.spawn(ep, name, false, fn)
}

// GoGroup is Go for tasks belonging to the trace group declared by
// TraceGroup: the exit of the last group task is the trace boundary.
func (nw *Network) GoGroup(ep *Endpoint, name string, fn func(*Task)) *Task {
	return nw.spawn(ep, name, true, fn)
}

// spawn creates the task's coroutine and hands it to the dispatcher, which
// gives it the next task id and queues it for its first grant. Once Close's
// teardown has begun nothing would ever grant it, so the calling goroutine
// runs it to its exit at once, escaped.
func (nw *Network) spawn(ep *Endpoint, name string, group bool, fn func(*Task)) *Task {
	t := &Task{name: name, ep: ep, s: nw.stepper, group: group, state: taskReady}
	t.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		t.seen = t.wakes
		fn(t)
		t.exit()
	})
	if !nw.q.post(handoff{kind: handSpawn, t: t}) {
		t.finish()
	}
	return t
}

// runEscapes resumes, as escaped, every task parked on a context whose
// registration fired. Called only by the dispatcher.
func (nw *Network) runEscapes() {
	nw.stepper.escapes.Store(false)
	nw.eachTask((*Task).escapeIfFired)
}

// finishTasks runs every unfinished task to its exit, exactly once, as
// escaped — tasks that never had a first grant included. The queue is
// closed, so no handoff is accepted any more and spawns from then on run
// inline (see spawn): the spawns still in the inbox are the last ones to
// register. Called by the dispatcher when the queue closes.
func (nw *Network) finishTasks() {
	nw.q.mu.Lock()
	nw.q.drainInbox(nw.stepper)
	nw.q.mu.Unlock()
	nw.eachTask((*Task).finish)
	nw.stepper.stopWatches()
}

// eachTask calls fn for every registered task, in process order. Called
// only by the dispatcher.
func (nw *Network) eachTask(fn func(*Task)) {
	for i := range nw.endpoints {
		for _, t := range nw.endpoints[i].tasks {
			fn(t)
		}
	}
}

// TraceGroup arms trace recording and declares the number of GoGroup tasks
// whose collective exit ends the trace. Call it before spawning them (the
// scenario harness spawns its runners under Freeze, so none can exit early).
func (nw *Network) TraceGroup(n int) {
	nw.stepper.beginTraceGroup(n)
}

// TraceResult blocks until the trace group has exited and returns the trace
// fingerprint with its shape counters. The fingerprint is the hex SHA-256
// over the (event, grant, exit) record stream up to the last group task's
// exit — byte-identical across runs of an identical seeded configuration. It
// is empty when the run was tainted by a wall-clock escape (a timeout cut the
// run at a nondeterministic point) — the returned stats then carry only
// TaintReason, naming the escape — and immediately empty when no trace group
// was declared.
func (nw *Network) TraceResult() (string, TraceStats) {
	s := nw.stepper
	if !s.tracing.Load() {
		return "", TraceStats{}
	}
	<-s.groupDone
	s.groupMu.Lock()
	defer s.groupMu.Unlock()
	return s.final, s.finalStats
}

// wakeTasks wakes every task registered on the endpoint — so a crash can wake
// them: each woken task observes Context().Err() != nil on its next granted
// step and unwinds deterministically, so crashes at decision moments replay
// exactly. Called only on the dispatcher's thread.
func (ep *Endpoint) wakeTasks() {
	for _, t := range ep.tasks {
		t.Wake()
	}
}

// Watch registers t to be woken whenever the dispatcher pushes a message into
// this process's mailbox for the instance — the task's side of the
// Watch + TryRecv-drain + Await receive idiom:
//
//	in.Watch(t)
//	for {
//		for { m, ok := in.TryRecv(); ... }
//		if done() { return }
//		t.Await(ctx)
//	}
//
// Watch(nil) clears the watcher. An instance has one watcher and one reader.
func (in Instance) Watch(t *Task) {
	b := in.box()
	b.mu.Lock()
	b.watcher = t
	b.mu.Unlock()
}
