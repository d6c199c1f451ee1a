package fd

import (
	"testing"

	"weakestfd/internal/model"
)

// The set-algebra formulas below are the reference definitions of the
// suspect oracle and its Ω / Σ derivations, kept verbatim from before the
// single-pass implementations in suspect.go. The tests compare the two over
// random failure patterns, sample times, shapes and queriers.

// visibleAlive returns the processes whose crash is not yet visible at time
// now given the suspicion delay.
func visibleAlive(pattern *model.FailurePattern, now, delay model.Time) model.ProcessSet {
	alive, _ := pattern.VisiblyAlive(now, delay)
	return alive
}

func refOracleSuspectsAt(o *OracleSuspects, p model.ProcessID) model.ProcessSet {
	now := o.Clock.Now()
	n := o.Pattern.N()
	if o.Shape != ShapePerfect && now < o.StabilizeAfter {
		out := model.AllProcesses(n)
		out.Remove(p)
		return out
	}
	crashed := model.AllProcesses(n).Minus(visibleAlive(o.Pattern, now, o.SuspicionDelay))
	if o.Shape == ShapeEventuallyStrong {
		out := model.AllProcesses(n)
		out.Remove(p)
		if leader, ok := visibleAlive(o.Pattern, now, o.SuspicionDelay).Min(); ok {
			out.Remove(leader)
		}
		return out.Union(crashed)
	}
	return crashed
}

func refSuspectOmegaAt(s SuspectOmega, p model.ProcessID) model.ProcessID {
	trusted := model.AllProcesses(s.N).Minus(s.Suspects.At(p))
	if leader, ok := trusted.Min(); ok {
		return leader
	}
	return p
}

func refSuspectSigmaAt(s SuspectSigma, p model.ProcessID) model.ProcessSet {
	trusted := model.AllProcesses(s.N).Minus(s.Suspects.At(p))
	if s.Accurate || 2*trusted.Len() > s.N {
		return trusted
	}
	majority := model.NewProcessSet()
	for i := 0; i < s.N/2+1; i++ {
		majority.Add(model.ProcessID(i))
	}
	return majority
}

// fixedSuspects is a SuspectSource returning one set for every querier.
type fixedSuspects struct{ set model.ProcessSet }

func (f fixedSuspects) At(model.ProcessID) model.ProcessSet { return f.set.Clone() }

// TestSuspectOraclesMatchReference: on random crash schedules (every process
// may crash, including all of them), every shape, suspicion delay, stabilize
// point, sample time and querier, OracleSuspects.At and the Ω / Σ derived
// from it agree with the reference formulas.
func TestSuspectOraclesMatchReference(t *testing.T) {
	shapes := []SuspectShape{ShapePerfect, ShapeEventuallyPerfect, ShapeEventuallyStrong}
	for seed := int64(0); seed < 300; seed++ {
		rng := newRand(seed)
		n := 1 + rng.Intn(9)
		pattern := model.NewFailurePattern(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				pattern.Crash(model.ProcessID(i), model.Time(rng.Intn(60)))
			}
		}
		clock := &fakeClock{}
		for _, shape := range shapes {
			sus := &OracleSuspects{
				Pattern:        pattern,
				Clock:          clock,
				Shape:          shape,
				SuspicionDelay: model.Time(rng.Intn(6)),
				StabilizeAfter: model.Time(rng.Intn(60)),
			}
			omega := SuspectOmega{Suspects: sus, N: n}
			sigma := SuspectSigma{Suspects: sus, N: n, Accurate: shape == ShapePerfect}
			for _, tick := range []model.Time{0, 3, 10, 30, 59, 61, 100} {
				clock.t = tick
				for p := model.ProcessID(0); int(p) < n; p++ {
					if got, want := sus.At(p), refOracleSuspectsAt(sus, p); !got.Equal(want) {
						t.Fatalf("seed %d %v t=%d p%d: suspects %v, reference %v", seed, shape, tick, p, got, want)
					}
					if got, want := omega.At(p), refSuspectOmegaAt(omega, p); got != want {
						t.Fatalf("seed %d %v t=%d p%d: Ω %v, reference %v", seed, shape, tick, p, got, want)
					}
					if got, want := sigma.At(p), refSuspectSigmaAt(sigma, p); !got.Equal(want) {
						t.Fatalf("seed %d %v t=%d p%d: Σ %v, reference %v", seed, shape, tick, p, got, want)
					}
				}
			}
		}
	}
}

// TestSuspectDerivationsMatchReference: the Ω and Σ derivations agree with
// the reference formulas on arbitrary suspect sets, including the empty and
// the full set, with and without the accuracy assumption.
func TestSuspectDerivationsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := newRand(seed)
		n := 1 + rng.Intn(9)
		set := model.NewProcessSet()
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				set.Add(model.ProcessID(i))
			}
		}
		src := fixedSuspects{set}
		omega := SuspectOmega{Suspects: src, N: n}
		for _, accurate := range []bool{false, true} {
			sigma := SuspectSigma{Suspects: src, N: n, Accurate: accurate}
			for p := model.ProcessID(0); int(p) < n; p++ {
				if got, want := omega.At(p), refSuspectOmegaAt(omega, p); got != want {
					t.Fatalf("seed %d suspects %v p%d: Ω %v, reference %v", seed, set, p, got, want)
				}
				if got, want := sigma.At(p), refSuspectSigmaAt(sigma, p); !got.Equal(want) {
					t.Fatalf("seed %d suspects %v accurate=%v p%d: Σ %v, reference %v", seed, set, accurate, p, got, want)
				}
			}
		}
	}
}
