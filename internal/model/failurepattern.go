package model

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// NeverCrashes is the crash time recorded for a process that is correct in a
// failure pattern. Any Time value compared against it is smaller.
const NeverCrashes = Time(1<<62 - 1)

// Later returns t+d saturated at NeverCrashes: a time that never comes
// stays never, and a huge delay cannot wrap past it. Every "crash time plus
// delay" of the detectors goes through it — a correct process's crash time
// is NeverCrashes, so an unsaturated sum with a large delay would overflow
// and make it look crashed long ago.
func Later(t, d Time) Time {
	if t >= NeverCrashes || d >= NeverCrashes-t {
		return NeverCrashes
	}
	return t + d
}

// FailurePattern is the function F of the paper: F(t) is the set of processes
// that have crashed through time t. It is represented by the crash time of
// each process (NeverCrashes for correct processes). Crashed processes do not
// recover, so F(t) ⊆ F(t+1) by construction.
//
// A FailurePattern can be used in two modes:
//
//   - as a static description (a planned crash schedule handed to the
//     simulator or the runtime before a run), or
//   - as a live record: the runtime calls Crash(p, t) when it kills a
//     process, and failure detectors backed by the oracle read CrashedAt.
//
// The type is safe for concurrent use. Reads take no lock: the crash times
// are a per-process array of atomics, which the failure detectors sample on
// every query.
type FailurePattern struct {
	mu      sync.Mutex // serialises writers
	n       int
	crash   []atomic.Int64 // per process; NeverCrashes while correct
	frozen  bool
	version atomic.Uint64
}

// NewFailurePattern returns a failure pattern over n processes in which every
// process is (so far) correct.
func NewFailurePattern(n int) *FailurePattern {
	f := &FailurePattern{n: n, crash: make([]atomic.Int64, n)}
	for i := range f.crash {
		f.crash[i].Store(int64(NeverCrashes))
	}
	return f
}

// N returns the number of processes in the system.
func (f *FailurePattern) N() int { return f.n }

// Crash records that process p crashes at time t. If p already has an earlier
// crash time the earlier one is kept (a process crashes once). Crash panics if
// p is out of range or the pattern has been frozen.
func (f *FailurePattern) Crash(p ProcessID, t Time) {
	if int(p) < 0 || int(p) >= f.n {
		panic(fmt.Sprintf("model: crash of out-of-range process %v (n=%d)", p, f.n))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.frozen {
		panic("model: Crash called on a frozen FailurePattern")
	}
	if Time(f.crash[p].Load()) <= t {
		return
	}
	f.crash[p].Store(int64(t))
	f.version.Add(1)
}

// Version returns a counter that changes whenever the pattern records a new
// (or earlier) crash. Detectors that derive values from the pattern can use
// it to cache across queries: a sample computed at version v over inputs that
// otherwise only depend on time stays valid while Version() == v.
func (f *FailurePattern) Version() uint64 { return f.version.Load() }

// Freeze marks the pattern immutable; later Crash calls panic. Tests freeze a
// planned pattern to guard against accidental mutation.
func (f *FailurePattern) Freeze() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.frozen = true
}

// CrashTime returns the crash time of p, or NeverCrashes if p is correct (or
// out of range).
func (f *FailurePattern) CrashTime(p ProcessID) Time {
	if int(p) < 0 || int(p) >= f.n {
		return NeverCrashes
	}
	return Time(f.crash[p].Load())
}

// CrashedAt reports whether p has crashed by time t (p ∈ F(t)).
func (f *FailurePattern) CrashedAt(p ProcessID, t Time) bool {
	return f.CrashTime(p) <= t
}

// CrashedBy returns F(t): the set of processes that have crashed through t.
func (f *FailurePattern) CrashedBy(t Time) ProcessSet {
	var s ProcessSet
	for i := range f.crash {
		if ct := Time(f.crash[i].Load()); ct <= t && ct != NeverCrashes {
			s.Add(ProcessID(i))
		}
	}
	return s
}

// VisiblyCrashed returns the processes whose crash is visible at time now
// given the suspicion delay: those with crash time + delay ≤ now. It takes no
// lock, and at n ≤ 128 it allocates nothing — the suspect oracles call it on
// every sample.
func (f *FailurePattern) VisiblyCrashed(now, delay Time) ProcessSet {
	var s ProcessSet
	for i := range f.crash {
		if Later(Time(f.crash[i].Load()), delay) <= now {
			s.Add(ProcessID(i))
		}
	}
	return s
}

// AliveAt returns Π − F(t): the processes that have not crashed by time t.
func (f *FailurePattern) AliveAt(t Time) ProcessSet {
	return AllProcesses(f.n).Minus(f.CrashedBy(t))
}

// MinVisiblyAlive returns the lowest-id process whose crash (if any) is not
// yet visible at time now given the suspicion delay, and true; or (0, false)
// if every process's crash is visible. It takes no lock and allocates
// nothing — the Ω oracle calls this on every sample.
func (f *FailurePattern) MinVisiblyAlive(now, delay Time) (ProcessID, bool) {
	for i := range f.crash {
		if Later(Time(f.crash[i].Load()), delay) > now {
			return ProcessID(i), true
		}
	}
	return 0, false
}

// VisiblyAlive returns the set of processes whose crash (if any) is not yet
// visible at time now given the suspicion delay, together with the first time
// at which that set next changes given the crashes recorded so far
// (NeverCrashes if it never does). The expiry lets callers cache the set: it
// is valid for every query time in [now, next).
func (f *FailurePattern) VisiblyAlive(now, delay Time) (ProcessSet, Time) {
	var alive ProcessSet
	next := NeverCrashes
	for i := range f.crash {
		if visibleAt := Later(Time(f.crash[i].Load()), delay); visibleAt > now {
			alive.Add(ProcessID(i))
			next = min(next, visibleAt)
		}
	}
	return alive, next
}

// Faulty returns faulty(F): every process with a recorded crash, regardless of
// time.
func (f *FailurePattern) Faulty() ProcessSet {
	return f.CrashedBy(NeverCrashes)
}

// Correct returns correct(F) = Π − faulty(F).
func (f *FailurePattern) Correct() ProcessSet {
	return AllProcesses(f.n).Minus(f.Faulty())
}

// FirstCrashTime returns the earliest crash time in the pattern and true, or
// (0, false) if no process crashes.
func (f *FailurePattern) FirstCrashTime() (Time, bool) {
	first := NeverCrashes
	for i := range f.crash {
		first = min(first, Time(f.crash[i].Load()))
	}
	return first, first != NeverCrashes
}

// FailureOccurredBy reports whether F(t) is non-empty.
func (f *FailurePattern) FailureOccurredBy(t Time) bool {
	first, ok := f.FirstCrashTime()
	return ok && first <= t
}

// NumFaulty returns |faulty(F)|.
func (f *FailurePattern) NumFaulty() int { return f.Faulty().Len() }

// Clone returns an independent (unfrozen) copy of the pattern.
func (f *FailurePattern) Clone() *FailurePattern {
	c := NewFailurePattern(f.n)
	for i := range f.crash {
		c.crash[i].Store(f.crash[i].Load())
	}
	return c
}

// String renders the pattern as "n=5 crashes[p1@10 p3@20]".
func (f *FailurePattern) String() string {
	var parts []string
	for i := range f.crash {
		if t := Time(f.crash[i].Load()); t != NeverCrashes {
			parts = append(parts, fmt.Sprintf("%v@%d", ProcessID(i), t))
		}
	}
	return fmt.Sprintf("n=%d crashes[%s]", f.n, strings.Join(parts, " "))
}
