package fdimpl

import (
	"testing"
	"time"

	"weakestfd/internal/model"
	"weakestfd/internal/net"
)

// eventually polls cond every millisecond until it holds or the deadline
// expires, reporting whether it held.
func eventually(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

func TestMajoritySigmaConvergesToCorrectMajority(t *testing.T) {
	const n = 5
	nw := net.NewNetwork(n, net.WithSeed(1))
	defer nw.Close()

	// Boot the ensemble atomically so virtual time cannot race ahead of
	// processes whose detector is not up yet.
	nw.Freeze()
	sigmas := make([]*MajoritySigma, n)
	for i := 0; i < n; i++ {
		sigmas[i] = StartMajoritySigma(nw.Endpoint(model.ProcessID(i)), 5*time.Millisecond)
	}
	nw.Thaw()
	defer func() {
		for _, s := range sigmas[:4] { // sigma[4] belongs to a crashed process; its goroutine exits via context
			s.Stop()
		}
	}()

	// Crash two processes: a majority (3 of 5) stays correct.
	nw.Crash(3)
	nw.Crash(4)

	correct := model.NewProcessSet(0, 1, 2)
	ok := eventually(5*time.Second, func() bool {
		for i := 0; i < 3; i++ {
			q := sigmas[i].Sample()
			if !q.SubsetOf(correct) || !q.Contains(model.ProcessID(i)) {
				return false
			}
		}
		return true
	})
	if !ok {
		for i := 0; i < 3; i++ {
			t.Logf("sigma[%d] = %v", i, sigmas[i].Sample())
		}
		t.Fatalf("majority sigma did not converge to correct processes")
	}

	// Any two current quorums of live processes must intersect (they are
	// majorities of the same 5-process system).
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if !sigmas[i].Sample().Intersects(sigmas[j].Sample()) {
				t.Fatalf("disjoint majority quorums: %v vs %v", sigmas[i].Sample(), sigmas[j].Sample())
			}
		}
	}
}

// TestMajoritySigmaAckSetsAccumulate: a round's ack set grows by one member
// per ack until it is a majority, which then becomes the quorum. Sets are
// values, so the loop must write each grown set back into its per-round map;
// if it did not, no set would ever grow past {self, sender}, and with a
// majority of 4 out of 7 the quorum would stay the initial full set.
func TestMajoritySigmaAckSetsAccumulate(t *testing.T) {
	const n = 7
	nw := net.NewNetwork(n, net.WithSeed(3))
	defer nw.Close()
	nw.Freeze()
	sigmas := make([]*MajoritySigma, n)
	for i := range sigmas {
		sigmas[i] = StartMajoritySigma(nw.Endpoint(model.ProcessID(i)), 5*time.Millisecond)
	}
	nw.Crash(5)
	nw.Crash(6)
	nw.Thaw()
	defer func() {
		for _, s := range sigmas[:5] {
			s.Stop()
		}
	}()
	correct := model.AllProcesses(5)
	ok := eventually(5*time.Second, func() bool {
		for i := range 5 {
			q := sigmas[i].Sample()
			if q.Len() < n/2+1 || !q.SubsetOf(correct) || !q.Contains(model.ProcessID(i)) {
				return false
			}
		}
		return true
	})
	if !ok {
		for i := range 5 {
			t.Logf("sigma[%d] = %v", i, sigmas[i].Sample())
		}
		t.Fatal("no process formed a majority quorum of correct responders")
	}
}

func TestMajoritySigmaInitialQuorumIsFullSet(t *testing.T) {
	nw := net.NewNetwork(3, net.WithSeed(2))
	defer nw.Close()
	s := StartMajoritySigma(nw.Endpoint(0), time.Hour) // never completes a round
	defer s.Stop()
	if got := s.Sample(); !got.Equal(model.AllProcesses(3)) {
		t.Fatalf("initial quorum = %v", got)
	}
}

func TestHeartbeatOmegaElectsLowestCorrect(t *testing.T) {
	const n = 4
	nw := net.NewNetwork(n, net.WithSeed(3))
	defer nw.Close()

	nw.Freeze()
	omegas := make([]*HeartbeatOmega, n)
	for i := 0; i < n; i++ {
		omegas[i] = StartHeartbeatOmega(nw.Endpoint(model.ProcessID(i)), 3*time.Millisecond, 40*time.Millisecond)
	}
	nw.Thaw()
	defer func() {
		for i := 1; i < n; i++ {
			omegas[i].Stop()
		}
	}()

	// Initially everyone should come to trust p0.
	if !eventually(5*time.Second, func() bool {
		for i := 0; i < n; i++ {
			if omegas[i].Sample() != 0 {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("omega did not converge to p0 before any crash")
	}

	// Crash p0: the survivors must converge on p1.
	nw.Crash(0)
	if !eventually(5*time.Second, func() bool {
		for i := 1; i < n; i++ {
			if omegas[i].Sample() != 1 {
				return false
			}
		}
		return true
	}) {
		for i := 1; i < n; i++ {
			t.Logf("omega[%d] = %v", i, omegas[i].Sample())
		}
		t.Fatalf("omega did not converge to p1 after p0 crashed")
	}
}

func TestHeartbeatFSTurnsRedOnlyAfterCrash(t *testing.T) {
	const n = 3
	nw := net.NewNetwork(n, net.WithSeed(4))
	defer nw.Close()

	// An FS ensemble must boot atomically: if virtual time runs while a
	// process's detector is not started yet, its silence is indistinguishable
	// from a crash and the signal would (correctly, but unhelpfully) turn red.
	nw.Freeze()
	fss := make([]*HeartbeatFS, n)
	for i := 0; i < n; i++ {
		fss[i] = StartHeartbeatFS(nw.Endpoint(model.ProcessID(i)), 3*time.Millisecond, 40*time.Millisecond)
	}
	nw.Thaw()
	defer func() {
		for i := 0; i < 2; i++ {
			fss[i].Stop()
		}
	}()

	// Without failures the signal should stay green well past the grace
	// period.
	time.Sleep(150 * time.Millisecond)
	for i := 0; i < n; i++ {
		if fss[i].Sample() != model.Green {
			t.Fatalf("fs[%d] red without any crash", i)
		}
	}

	nw.Crash(2)
	if !eventually(5*time.Second, func() bool {
		return fss[0].Sample() == model.Red && fss[1].Sample() == model.Red
	}) {
		t.Fatalf("fs did not turn red after crash")
	}
}

func TestStopIsIdempotentAndTerminates(t *testing.T) {
	nw := net.NewNetwork(2, net.WithSeed(5))
	defer nw.Close()
	s := StartMajoritySigma(nw.Endpoint(0), 5*time.Millisecond)
	o := StartHeartbeatOmega(nw.Endpoint(0), 5*time.Millisecond, 20*time.Millisecond)
	f := StartHeartbeatFS(nw.Endpoint(0), 5*time.Millisecond, 20*time.Millisecond)
	s.Stop()
	s.Stop()
	o.Stop()
	f.Stop()
}

func TestDetectorsExitWhenProcessCrashes(t *testing.T) {
	nw := net.NewNetwork(2, net.WithSeed(6))
	defer nw.Close()
	s := StartMajoritySigma(nw.Endpoint(1), 5*time.Millisecond)
	nw.Crash(1)
	done := make(chan struct{})
	go func() {
		<-s.done
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("detector goroutine did not exit after its process crashed")
	}
}
