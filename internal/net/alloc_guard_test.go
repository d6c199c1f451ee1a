//go:build !race

package net

import (
	"testing"
	"time"

	"weakestfd/internal/model"
)

// Allocation-regression guards for the delivery fast path. They run only
// without the race detector (its instrumentation allocates), and CI invokes
// them through the dedicated no-race test step. The ceilings are the
// contract the large-n fast path was built to:
//
//   - steady-state unicast delivery — enqueue, dispatch, mailbox push,
//     TryRecv — allocates nothing once the ring, the heap's key array and
//     its body slab are warm;
//   - a broadcast enqueue amortises to at most one allocation per call
//     (zero in steady state: it stores one body and n 24-byte keys, and the
//     budget of one absorbs a late doubling of the key array or the slab
//     when the dispatcher falls behind a sustained storm).
//
// The structural side of the broadcast budget — one body and n keys per
// fan-out, 24-byte keys — is pinned in heap_model_test.go, which also runs
// under the race detector.

// warmNetwork stands up a 2-process network and runs traffic until the
// mailbox ring, the key array and the body slab have reached steady-state
// capacity.
func warmNetwork(t *testing.T) (*Network, Instance, Instance) {
	t.Helper()
	nw := NewNetwork(2, WithSeed(1), WithDelays(0, 10*time.Microsecond))
	t.Cleanup(nw.Close)
	src := nw.Endpoint(0).Instance("guard")
	dst := nw.Endpoint(1).Instance("guard")
	for i := 0; i < 256; i++ {
		src.SendAux(1, "w", int64(i), 0, nil)
	}
	deadline := time.Now().Add(5 * time.Second)
	for got := 0; got < 256; {
		if _, ok := dst.TryRecv(); ok {
			got++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatal("warmup never drained")
		}
	}
	return nw, src, dst
}

func TestSteadyStateDeliveryAllocationFree(t *testing.T) {
	_, src, dst := warmNetwork(t)
	avg := testing.AllocsPerRun(50, func() {
		src.SendAux(1, "m", 7, 0, nil)
		for {
			if _, ok := dst.TryRecv(); ok {
				return
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state delivery allocates %v objects per message, want 0", avg)
	}
}

func TestBroadcastEnqueueAmortisesToOneAllocation(t *testing.T) {
	const n = 50
	nw := NewNetwork(n, WithSeed(1), WithDelays(0, 10*time.Microsecond))
	defer nw.Close()
	// Handler-mode sinks: delivery costs no ring growth and no goroutines,
	// so the measurement isolates the enqueue side.
	sink := nopHandler{}
	for p := 0; p < n; p++ {
		nw.Endpoint(model.ProcessID(p)).Instance("storm").Handle(sink)
	}
	src := nw.Endpoint(0).Instance("storm")
	for i := 0; i < 64; i++ { // warm the key array and the body slab
		src.BroadcastAux("w", int64(i), 0, nil)
	}
	avg := testing.AllocsPerRun(200, func() {
		src.BroadcastAux("b", 9, 0, nil)
	})
	if avg > 1 {
		t.Fatalf("broadcast enqueue allocates %v objects per call, want <= 1 amortised", avg)
	}
}

type nopHandler struct{}

func (nopHandler) HandleMessage(Message) {}
