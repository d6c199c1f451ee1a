package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFailurePatternBasics(t *testing.T) {
	f := NewFailurePattern(5)
	if f.N() != 5 {
		t.Fatalf("N = %d", f.N())
	}
	f.Crash(1, 10)
	f.Crash(3, 20)

	if !f.CrashedAt(1, 10) || f.CrashedAt(1, 9) {
		t.Errorf("CrashedAt wrong for p1")
	}
	if f.CrashTime(0) != NeverCrashes {
		t.Errorf("CrashTime of correct process = %d", f.CrashTime(0))
	}
	if got := f.Faulty(); !got.Equal(NewProcessSet(1, 3)) {
		t.Errorf("Faulty = %v", got)
	}
	if got := f.Correct(); !got.Equal(NewProcessSet(0, 2, 4)) {
		t.Errorf("Correct = %v", got)
	}
	if got := f.CrashedBy(15); !got.Equal(NewProcessSet(1)) {
		t.Errorf("CrashedBy(15) = %v", got)
	}
	if got := f.AliveAt(25); !got.Equal(NewProcessSet(0, 2, 4)) {
		t.Errorf("AliveAt(25) = %v", got)
	}
	if first, ok := f.FirstCrashTime(); !ok || first != 10 {
		t.Errorf("FirstCrashTime = %d, %v", first, ok)
	}
	if f.FailureOccurredBy(9) || !f.FailureOccurredBy(10) {
		t.Errorf("FailureOccurredBy wrong")
	}
	if f.NumFaulty() != 2 {
		t.Errorf("NumFaulty = %d", f.NumFaulty())
	}
}

func TestFailurePatternEarliestCrashWins(t *testing.T) {
	f := NewFailurePattern(3)
	f.Crash(0, 30)
	f.Crash(0, 10)
	f.Crash(0, 50)
	if got := f.CrashTime(0); got != 10 {
		t.Fatalf("CrashTime = %d, want 10", got)
	}
}

func TestFailurePatternNoCrashes(t *testing.T) {
	f := NewFailurePattern(4)
	if _, ok := f.FirstCrashTime(); ok {
		t.Errorf("FirstCrashTime reported a crash")
	}
	if f.FailureOccurredBy(NeverCrashes - 1) {
		t.Errorf("FailureOccurredBy true with no crashes")
	}
	if !f.Correct().Equal(AllProcesses(4)) {
		t.Errorf("Correct = %v", f.Correct())
	}
}

func TestFailurePatternFreeze(t *testing.T) {
	f := NewFailurePattern(2)
	f.Crash(0, 1)
	f.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatalf("Crash after Freeze did not panic")
		}
	}()
	f.Crash(1, 2)
}

func TestFailurePatternOutOfRangePanics(t *testing.T) {
	f := NewFailurePattern(2)
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-range Crash did not panic")
		}
	}()
	f.Crash(7, 1)
}

func TestFailurePatternClone(t *testing.T) {
	f := NewFailurePattern(3)
	f.Crash(1, 5)
	c := f.Clone()
	c.Crash(2, 6)
	if f.Faulty().Contains(2) {
		t.Fatalf("Clone aliases original")
	}
	if !c.Faulty().Contains(1) {
		t.Fatalf("Clone lost crash record")
	}
}

func TestFailurePatternString(t *testing.T) {
	f := NewFailurePattern(3)
	f.Crash(2, 7)
	f.Crash(0, 3)
	if got := f.String(); got != "n=3 crashes[p0@3 p2@7]" {
		t.Fatalf("String = %q", got)
	}
}

// Property: F(t) is monotone non-decreasing in t, and faulty(F) is the union
// of all F(t).
func TestQuickFailurePatternMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		f := NewFailurePattern(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				f.Crash(ProcessID(i), Time(r.Intn(100)))
			}
		}
		prev := NewProcessSet()
		for tick := Time(0); tick <= 100; tick += 10 {
			cur := f.CrashedBy(tick)
			if !prev.SubsetOf(cur) {
				return false
			}
			prev = cur
		}
		return prev.SubsetOf(f.Faulty()) && f.Faulty().Equal(f.CrashedBy(NeverCrashes))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: alive and crashed partition the process set at every time.
func TestQuickFailurePatternAliveCrashedPartition(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		f := NewFailurePattern(n)
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				f.Crash(ProcessID(i), Time(r.Intn(50)))
			}
		}
		for tick := Time(0); tick <= 60; tick += 7 {
			alive, crashed := f.AliveAt(tick), f.CrashedBy(tick)
			if alive.Intersects(crashed) {
				return false
			}
			if !alive.Union(crashed).Equal(AllProcesses(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnvironments(t *testing.T) {
	maj := NewFailurePattern(5)
	maj.Crash(0, 1)
	maj.Crash(1, 2)

	minr := NewFailurePattern(5)
	minr.Crash(0, 1)
	minr.Crash(1, 2)
	minr.Crash(2, 3)

	allCrash := NewFailurePattern(3)
	allCrash.Crash(0, 1)
	allCrash.Crash(1, 1)
	allCrash.Crash(2, 1)

	none := NewFailurePattern(3)

	tests := []struct {
		name string
		env  Environment
		f    *FailurePattern
		want bool
	}{
		{"any allows majority pattern", AnyEnvironment(), maj, true},
		{"any allows minority pattern", AnyEnvironment(), minr, true},
		{"any rejects all-crashed", AnyEnvironment(), allCrash, false},
		{"majority-correct accepts 3/5 correct", MajorityCorrect(), maj, true},
		{"majority-correct rejects 2/5 correct", MajorityCorrect(), minr, false},
		{"minority-correct rejects 3/5 correct", MinorityCorrect(), maj, false},
		{"minority-correct accepts 2/5 correct", MinorityCorrect(), minr, true},
		{"max-failures-2 accepts 2 faults", MaxFailures(2), maj, true},
		{"max-failures-2 rejects 3 faults", MaxFailures(2), minr, false},
		{"failure-free rejects crashes", FailureFree(), maj, false},
		{"failure-free accepts none", FailureFree(), none, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.env.Allows(tc.f); got != tc.want {
				t.Fatalf("%s.Allows(%v) = %v, want %v", tc.env.Name(), tc.f, got, tc.want)
			}
		})
	}
}

func TestCrashesBeforeEnvironment(t *testing.T) {
	// Environment: p1 never crashes before p0.
	env := CrashesBefore(0, 1)

	ok1 := NewFailurePattern(3) // p1 correct
	ok2 := NewFailurePattern(3) // p0 at 5, p1 at 10
	ok2.Crash(0, 5)
	ok2.Crash(1, 10)
	bad := NewFailurePattern(3) // p1 crashes, p0 correct
	bad.Crash(1, 10)

	if !env.Allows(ok1) || !env.Allows(ok2) {
		t.Errorf("environment rejected allowed patterns")
	}
	if env.Allows(bad) {
		t.Errorf("environment accepted forbidden pattern")
	}
}

func TestEnvironmentFunc(t *testing.T) {
	env := EnvironmentFunc("p0-correct", func(f *FailurePattern) bool {
		return !f.Faulty().Contains(0)
	})
	if env.Name() != "p0-correct" {
		t.Fatalf("Name = %q", env.Name())
	}
	f := NewFailurePattern(2)
	if !env.Allows(f) {
		t.Fatalf("Allows = false for empty pattern")
	}
	f.Crash(0, 1)
	if env.Allows(f) {
		t.Fatalf("Allows = true after p0 crash")
	}
}

// TestCrashVisibilitySaturatesAtHugeDelay: at delay = MaxInt64 a correct
// process (crash time NeverCrashes) stays visibly alive, and a crash stays
// invisible — the sum "crash time + delay" saturates at NeverCrashes instead
// of wrapping negative.
func TestCrashVisibilitySaturatesAtHugeDelay(t *testing.T) {
	const huge = Time(math.MaxInt64)
	if got := Later(NeverCrashes, huge); got != NeverCrashes {
		t.Fatalf("Later(NeverCrashes, MaxInt64) = %d", got)
	}
	if got := Later(10, huge); got != NeverCrashes {
		t.Fatalf("Later(10, MaxInt64) = %d", got)
	}
	if got := Later(10, 5); got != 15 {
		t.Fatalf("Later(10, 5) = %d", got)
	}
	f := NewFailurePattern(3)
	f.Crash(1, 10)
	now := Time(1 << 40)
	if s := f.VisiblyCrashed(now, huge); !s.IsEmpty() {
		t.Fatalf("VisiblyCrashed at MaxInt64 delay = %v, want {}", s)
	}
	if s, next := f.VisiblyAlive(now, huge); !s.Equal(AllProcesses(3)) || next != NeverCrashes {
		t.Fatalf("VisiblyAlive at MaxInt64 delay = %v, next %d", s, next)
	}
	if p, ok := f.MinVisiblyAlive(now, huge); !ok || p != 0 {
		t.Fatalf("MinVisiblyAlive at MaxInt64 delay = %v, %v", p, ok)
	}
	if s := f.VisiblyCrashed(now, 0); !s.Equal(NewProcessSet(1)) {
		t.Fatalf("VisiblyCrashed at delay 0 = %v, want {p1}", s)
	}
}
