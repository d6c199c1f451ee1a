package fd

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"weakestfd/internal/model"
)

// sampleTicks is the probe schedule of the suspect property tests: it spans
// the chaotic prefix, the crash times and a long convergence tail.
var sampleTicks = []model.Time{0, 5, 10, 20, 40, 80, 200}

// suspectHistory runs the oracle over a random seeded crash schedule and
// returns the pattern plus the recorded suspect-list history. keepOneCorrect
// crashes at most n-1 processes so the eventual clauses are non-vacuous.
func suspectHistory(seed int64, shape SuspectShape) (*model.FailurePattern, *model.History) {
	rng := newRand(seed)
	n := 2 + rng.Intn(5)
	pattern := model.NewFailurePattern(n)
	clock := &fakeClock{}
	crashes := rng.Intn(n)
	for i := 0; i < crashes; i++ {
		pattern.Crash(model.ProcessID(i), model.Time(1+rng.Intn(50)))
	}
	sus := &OracleSuspects{
		Pattern:        pattern,
		Clock:          clock,
		Shape:          shape,
		SuspicionDelay: model.Time(rng.Intn(5)),
		StabilizeAfter: model.Time(rng.Intn(60)),
	}
	hist := model.NewHistory()
	for _, tick := range sampleTicks {
		clock.t = tick
		for p := 0; p < n; p++ {
			// Crashed processes stop querying their module, as in a real run.
			if pattern.CrashedAt(model.ProcessID(p), tick) {
				continue
			}
			hist.Record(model.ProcessID(p), tick, sus.At(model.ProcessID(p)))
		}
	}
	return pattern, hist
}

// Property: the P-shaped oracle satisfies the perfect-detector clauses for
// every seeded crash schedule.
func TestQuickOraclePerfectSpec(t *testing.T) {
	prop := func(seed int64) bool {
		pattern, hist := suspectHistory(seed, ShapePerfect)
		return model.CheckPerfect(pattern, hist, model.DefaultCheckOptions()).OK
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the ◇P-shaped oracle satisfies the ◇P clauses (and therefore the
// ◇S ones — ◇P refines ◇S).
func TestQuickOracleEventuallyPerfectSpec(t *testing.T) {
	prop := func(seed int64) bool {
		pattern, hist := suspectHistory(seed, ShapeEventuallyPerfect)
		if !model.CheckEventuallyPerfect(pattern, hist, model.DefaultCheckOptions()).OK {
			return false
		}
		return model.CheckEventuallyStrong(pattern, hist, model.DefaultCheckOptions()).OK
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the ◇S-shaped oracle satisfies the ◇S clauses.
func TestQuickOracleEventuallyStrongSpec(t *testing.T) {
	prop := func(seed int64) bool {
		pattern, hist := suspectHistory(seed, ShapeEventuallyStrong)
		return model.CheckEventuallyStrong(pattern, hist, model.DefaultCheckOptions()).OK
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// The classes are genuinely distinct: the ◇P oracle's chaotic prefix
// violates P's perpetual accuracy, and the ◇S oracle's permanent defamation
// violates ◇P's eventual strong accuracy.
func TestSuspectShapesAreDistinct(t *testing.T) {
	pattern := model.NewFailurePattern(4)
	clock := &fakeClock{}

	dp := &OracleSuspects{Pattern: pattern, Clock: clock, Shape: ShapeEventuallyPerfect, StabilizeAfter: 50}
	hist := model.NewHistory()
	clock.t = 10 // inside the prefix: p0 suspects everyone else, falsely
	hist.Record(0, 10, dp.At(0))
	if model.CheckPerfect(pattern, hist, model.SafetyOnlyCheckOptions()).OK {
		t.Fatalf("◇P prefix passed P's perpetual accuracy")
	}

	ds := &OracleSuspects{Pattern: pattern, Clock: clock, Shape: ShapeEventuallyStrong, StabilizeAfter: 0}
	hist = model.NewHistory()
	clock.t = 100
	for p := 0; p < 4; p++ {
		hist.Record(model.ProcessID(p), 100, ds.At(model.ProcessID(p)))
	}
	if model.CheckEventuallyPerfect(pattern, hist, model.DefaultCheckOptions()).OK {
		t.Fatalf("◇S defamation passed ◇P's eventual strong accuracy")
	}
	if v := model.CheckEventuallyStrong(pattern, hist, model.DefaultCheckOptions()); !v.OK {
		t.Fatalf("◇S oracle failed its own class: %v", v)
	}
}

func TestSuspectOmegaConvergesToLowestTrusted(t *testing.T) {
	clock := &fakeClock{}
	for _, shape := range []SuspectShape{ShapePerfect, ShapeEventuallyPerfect, ShapeEventuallyStrong} {
		pattern := model.NewFailurePattern(4)
		pattern.Crash(0, 5)
		sus := &OracleSuspects{Pattern: pattern, Clock: clock, Shape: shape, StabilizeAfter: 20}
		omega := SuspectOmega{Suspects: sus, N: 4}
		clock.t = 100
		for p := 1; p < 4; p++ {
			if got := omega.At(model.ProcessID(p)); got != 1 {
				t.Fatalf("%v: leader at p%d = %v, want p1", shape, p, got)
			}
		}
	}
}

// Property: any two SuspectSigma outputs intersect, across shapes, times and
// schedules — the perpetual Σ clause the derivation must never lose, chaos
// prefix included.
func TestQuickSuspectSigmaIntersection(t *testing.T) {
	prop := func(seed int64) bool {
		rng := newRand(seed)
		n := 2 + rng.Intn(5)
		pattern := model.NewFailurePattern(n)
		clock := &fakeClock{}
		crashes := rng.Intn(n)
		for i := 0; i < crashes; i++ {
			pattern.Crash(model.ProcessID(i), model.Time(1+rng.Intn(50)))
		}
		shape := SuspectShape(rng.Intn(3))
		sus := &OracleSuspects{
			Pattern:        pattern,
			Clock:          clock,
			Shape:          shape,
			SuspicionDelay: model.Time(rng.Intn(5)),
			StabilizeAfter: model.Time(rng.Intn(60)),
		}
		sigma := SuspectSigma{Suspects: sus, N: n, Accurate: shape == ShapePerfect}
		var outputs []model.ProcessSet
		for _, tick := range sampleTicks {
			clock.t = tick
			for p := 0; p < n; p++ {
				if pattern.CrashedAt(model.ProcessID(p), tick) {
					continue
				}
				outputs = append(outputs, sigma.At(model.ProcessID(p)))
			}
		}
		for i := range outputs {
			for j := i + 1; j < len(outputs); j++ {
				if !outputs[i].Intersects(outputs[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSuspectFSRedExactlyOnSuspicion(t *testing.T) {
	pattern := model.NewFailurePattern(3)
	clock := &fakeClock{}
	sus := &OracleSuspects{Pattern: pattern, Clock: clock, Shape: ShapePerfect, SuspicionDelay: 2}
	fs := SuspectFS{Suspects: sus}
	if fs.At(0) != model.Green {
		t.Fatalf("red with no crash")
	}
	pattern.Crash(1, 10)
	clock.t = 11
	if fs.At(0) != model.Green {
		t.Fatalf("red before the suspicion delay elapsed")
	}
	clock.t = 12
	if fs.At(0) != model.Red {
		t.Fatalf("green after the crash became visible")
	}
}

// TestOracleSamplesDuringCrashes samples every oracle class from several
// goroutines while crashes are recorded, as a run's detector queries and its
// fault injection do. The pattern's crash times and OracleSigma's memo are
// read without a lock; under -race this checks they are read safely, and
// every sample must still satisfy its class's perpetual clause at the end.
func TestOracleSamplesDuringCrashes(t *testing.T) {
	const n = 9
	pattern := model.NewFailurePattern(n)
	clock := &atomicClock{}
	var suites []*Suite
	for _, class := range []string{"omega-sigma", "perfect", "eventually-strong{stabilize:5}"} {
		s, err := Build(pattern, clock, MustParseSpec(class))
		if err != nil {
			t.Fatal(err)
		}
		suites = append(suites, s)
	}
	var wg sync.WaitGroup
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				p := model.ProcessID((g + i) % n)
				for _, s := range suites {
					s.Omega.At(p)
					s.Sigma.At(p)
				}
			}
		}()
	}
	for p := range model.ProcessID(4) {
		clock.t.Add(10)
		pattern.Crash(p, model.Time(clock.t.Load()))
	}
	wg.Wait()
	clock.t.Add(10)
	alive := model.AllProcesses(n).Minus(model.AllProcesses(4))
	for _, s := range suites[:2] {
		if q := s.Sigma.At(5); !q.Equal(alive) {
			t.Fatalf("Σ after the crashes = %v, want %v", q, alive)
		}
		if l := s.Omega.At(5); l != 4 {
			t.Fatalf("Ω after the crashes = %v, want p4", l)
		}
	}
}

// atomicClock is a TimeSource safe to read while a test advances it.
type atomicClock struct{ t atomic.Int64 }

func (c *atomicClock) Now() model.Time { return model.Time(c.t.Load()) }
