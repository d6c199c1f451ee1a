// Package fdimpl contains message-passing implementations of the failure
// detectors used in the paper, built only from communication over the
// asynchronous runtime (internal/net):
//
//   - MajoritySigma: the Introduction's "Σ ex nihilo" construction — each
//     process periodically sends join-quorum messages and adopts any majority
//     of responders as its quorum. It is a correct Σ exactly in
//     majority-correct environments, which is the paper's point: with a
//     correct majority Σ comes for free, so the (Ω, Σ) result generalises the
//     classical majority-only result.
//   - HeartbeatOmega: a timeout-based Ω that elects the lowest-id process
//     that is still heartbeating. It converges when message delays are
//     eventually bounded (true of the in-memory runtime), a partial-synchrony
//     assumption the asynchronous model itself does not grant.
//   - HeartbeatFS: a timeout-based failure signal that turns red permanently
//     once any process stops heartbeating. Its accuracy (never red without a
//     crash) also rests on the partial-synchrony assumption; the oracle FS in
//     internal/fd is the assumption-free reference.
//
// All intervals and timeouts are measured in the network's virtual time, so a
// heartbeat round costs no wall-clock time. The loops run as scheduler tasks
// with task-bound tickers: the dispatcher delivers a tick only once every
// task is parked, so virtual time cannot run ahead of the detector loops by
// construction, and the partial-synchrony assumption these detectors need
// survives time being simulated.
//
// All three run one scheduler task per process; callers must Stop them (or
// close the network) when done.
//
// The whole family is also packaged as the "heartbeat" class of
// fd.DefaultRegistry (see heartbeat.go), so scenario sweeps and explore runs
// can compare the implemented detectors against the oracles on one grid.
package fdimpl

import (
	"sync"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
)

// MajoritySigma is a message-based Σ for majority-correct environments.
type MajoritySigma struct {
	ep       *net.Endpoint
	interval time.Duration
	ticker   *net.Timer
	task     *net.Task

	mu     sync.Mutex
	quorum model.ProcessSet

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

const sigmaInstance = "fdimpl.sigma"

// StartMajoritySigma starts the join-quorum protocol at ep's process, probing
// every interval of virtual time. The initial quorum is the full process set
// (trivially intersecting with everything).
//
// The probe ticker and the first probe are issued synchronously, before
// Start returns, so their place in the schedule does not depend on when the
// loop task first runs. The loop consumes its instance exclusively through
// Endpoint.TryRecv — nothing else may read it. Start a whole ensemble under
// Network.Freeze/Thaw for a simultaneous boot.
func StartMajoritySigma(ep *net.Endpoint, interval time.Duration) *MajoritySigma {
	s := &MajoritySigma{
		ep:       ep,
		interval: interval,
		ticker:   ep.NewTicker(interval),
		quorum:   model.AllProcesses(ep.N()),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	ep.Broadcast(sigmaInstance, "probe", sigmaProbe{Round: 0})
	s.task = ep.Network().Go(ep, "fdimpl.sigma", s.run)
	return s
}

// Sample implements fd.Sigma: it returns the most recent majority of
// responders (or the full set before the first round completes).
func (s *MajoritySigma) Sample() model.ProcessSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quorum.Clone()
}

// Stop terminates the background protocol.
func (s *MajoritySigma) Stop() {
	s.once.Do(func() { close(s.stop) })
	s.task.Wake()
	<-s.done
}

type sigmaProbe struct{ Round int }
type sigmaAck struct{ Round int }

func (s *MajoritySigma) run(task *net.Task) {
	defer close(s.done)
	defer s.ticker.Stop()
	s.ticker.Bind(task)

	round := 0
	acked := map[int]model.ProcessSet{}
	majority := s.ep.N()/2 + 1

	handle := func(msg net.Message) {
		switch msg.Type {
		case "probe":
			probe := msg.Payload.(sigmaProbe)
			s.ep.Send(msg.From, sigmaInstance, "ack", sigmaAck{Round: probe.Round})
		case "ack":
			// Accept acks for the previous round too: a peer that answers a
			// probe at its own next tick produces an ack that systematically
			// reaches us one round late (all tickers share virtual
			// deadlines), so an exact-round check would discard almost every
			// ack and leave quorum formation to a scheduling race.
			ack := msg.Payload.(sigmaAck)
			if ack.Round < round-1 || ack.Round > round {
				return
			}
			set, ok := acked[ack.Round]
			if !ok {
				set = model.NewProcessSet(s.ep.ID())
				acked[ack.Round] = set
			}
			set.Add(msg.From)
			if set.Len() >= majority {
				s.mu.Lock()
				s.quorum = set.Clone()
				s.mu.Unlock()
			}
		}
	}

	// Drain synchronously before advancing the round: TryRecv reads the
	// mailbox ring directly, so everything the dispatcher has delivered up to
	// this tick is processed first, and the run-to-quiescence handshake paces
	// rounds by processing progress.
	tick := func() {
		for {
			msg, ok := s.ep.TryRecv(sigmaInstance)
			if !ok {
				break
			}
			handle(msg)
		}
		delete(acked, round-1)
		round++
		s.ep.Broadcast(sigmaInstance, "probe", sigmaProbe{Round: round})
	}

	for {
		select {
		case <-s.stop:
			return
		default:
		}
		if s.ep.Context().Err() != nil {
			return
		}
		if s.ticker.TryFire() {
			tick()
		} else {
			task.Await(nil)
		}
	}
}

// HeartbeatOmega is a timeout-based Ω: the leader is the lowest-id process
// that has heartbeated within the timeout (the local process always trusts
// itself).
type HeartbeatOmega struct {
	ep       *net.Endpoint
	interval time.Duration
	timeout  time.Duration
	ticker   *net.Timer
	task     *net.Task
	start    time.Duration

	mu     sync.Mutex
	leader model.ProcessID

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

const omegaInstance = "fdimpl.omega"

// StartHeartbeatOmega starts heartbeating at ep's process. timeout should be
// several times the heartbeat interval plus the maximum expected message
// delay, all in virtual time. Setup (ticker, first heartbeat) happens
// synchronously, before Start returns; the loop consumes its instance
// exclusively through Endpoint.TryRecv — nothing else may read it. Start a
// whole ensemble under Network.Freeze/Thaw for a simultaneous boot.
func StartHeartbeatOmega(ep *net.Endpoint, interval, timeout time.Duration) *HeartbeatOmega {
	o := &HeartbeatOmega{
		ep:       ep,
		interval: interval,
		timeout:  timeout,
		ticker:   ep.NewTicker(interval),
		start:    ep.VirtualNow(),
		leader:   0,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	ep.Broadcast(omegaInstance, "hb", nil)
	o.task = ep.Network().Go(ep, "fdimpl.omega", o.run)
	return o
}

// Sample implements fd.Omega.
func (o *HeartbeatOmega) Sample() model.ProcessID {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.leader
}

// Stop terminates the background protocol.
func (o *HeartbeatOmega) Stop() {
	o.once.Do(func() { close(o.stop) })
	o.task.Wake()
	<-o.done
}

func (o *HeartbeatOmega) run(task *net.Task) {
	defer close(o.done)
	defer o.ticker.Stop()
	o.ticker.Bind(task)

	lastHeard := make(map[model.ProcessID]time.Duration)

	recompute := func(now time.Duration) {
		leader := o.ep.ID()
		for i := 0; i < o.ep.N(); i++ {
			p := model.ProcessID(i)
			if p == o.ep.ID() {
				// The local process always trusts itself; it is considered
				// below via the initial value of leader.
				continue
			}
			heard, ok := lastHeard[p]
			alive := (ok && now-heard <= o.timeout) || (!ok && now-o.start <= o.timeout)
			if alive && p < leader {
				leader = p
			}
		}
		o.mu.Lock()
		o.leader = leader
		o.mu.Unlock()
	}

	// Drain synchronously before recomputing: TryRecv reads the mailbox ring
	// directly, so freshness reflects everything the dispatcher has delivered
	// up to this tick. "now" is the fire deadline read back from the virtual
	// clock — the dispatcher grants the woken task before popping any further
	// event, so the clock cannot have moved past it.
	tick := func(now time.Duration) {
		for {
			msg, ok := o.ep.TryRecv(omegaInstance)
			if !ok {
				break
			}
			if msg.Type == "hb" {
				lastHeard[msg.From] = now
			}
		}
		o.ep.Broadcast(omegaInstance, "hb", nil)
		recompute(now)
	}

	for {
		select {
		case <-o.stop:
			return
		default:
		}
		if o.ep.Context().Err() != nil {
			return
		}
		if o.ticker.TryFire() {
			tick(o.ep.VirtualNow())
		} else {
			task.Await(nil)
		}
	}
}

// HeartbeatFS is a timeout-based failure signal: once any process has been
// silent for longer than the timeout (after an initial grace period), the
// signal turns red permanently.
type HeartbeatFS struct {
	ep       *net.Endpoint
	interval time.Duration
	timeout  time.Duration
	ticker   *net.Timer
	task     *net.Task
	start    time.Duration

	mu  sync.Mutex
	red bool

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

const fsInstance = "fdimpl.fs"

// StartHeartbeatFS starts heartbeating at ep's process. Setup (ticker, first
// heartbeat) happens synchronously, before Start returns; the loop consumes
// its instance exclusively through Endpoint.TryRecv — nothing else may read
// it. Start a whole ensemble under Network.Freeze/Thaw for a
// simultaneous boot.
func StartHeartbeatFS(ep *net.Endpoint, interval, timeout time.Duration) *HeartbeatFS {
	f := &HeartbeatFS{
		ep:       ep,
		interval: interval,
		timeout:  timeout,
		ticker:   ep.NewTicker(interval),
		start:    ep.VirtualNow(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	ep.Broadcast(fsInstance, "hb", nil)
	f.task = ep.Network().Go(ep, "fdimpl.fs", f.run)
	return f
}

// Sample implements fd.FS.
func (f *HeartbeatFS) Sample() model.FSValue {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.red {
		return model.Red
	}
	return model.Green
}

// Stop terminates the background protocol.
func (f *HeartbeatFS) Stop() {
	f.once.Do(func() { close(f.stop) })
	f.task.Wake()
	<-f.done
}

func (f *HeartbeatFS) run(task *net.Task) {
	defer close(f.done)
	defer f.ticker.Stop()
	f.ticker.Bind(task)

	lastHeard := make(map[model.ProcessID]time.Duration)
	grace := 2 * f.timeout

	// Drain synchronously before the timeout check: TryRecv reads the
	// mailbox ring directly, so the check runs against every heartbeat the
	// dispatcher has delivered up to this tick. The signal is sticky, so a
	// single stale window would falsely turn it red forever — this is the
	// path that must not race.
	tick := func(now time.Duration) {
		for {
			msg, ok := f.ep.TryRecv(fsInstance)
			if !ok {
				break
			}
			if msg.Type == "hb" {
				lastHeard[msg.From] = now
			}
		}
		f.ep.Broadcast(fsInstance, "hb", nil)
		if now-f.start < grace {
			return
		}
		for i := 0; i < f.ep.N(); i++ {
			p := model.ProcessID(i)
			if p == f.ep.ID() {
				continue
			}
			heard, ok := lastHeard[p]
			if !ok {
				heard = f.start + grace
			}
			if now-heard > f.timeout {
				f.mu.Lock()
				f.red = true
				f.mu.Unlock()
			}
		}
	}

	for {
		select {
		case <-f.stop:
			return
		default:
		}
		if f.ep.Context().Err() != nil {
			return
		}
		if f.ticker.TryFire() {
			tick(f.ep.VirtualNow())
		} else {
			task.Await(nil)
		}
	}
}

var (
	_ fd.Sigma = (*MajoritySigma)(nil)
	_ fd.Omega = (*HeartbeatOmega)(nil)
	_ fd.FS    = (*HeartbeatFS)(nil)
)
