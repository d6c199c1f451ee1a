//go:build !race

package fd

import (
	"testing"

	"weakestfd/internal/model"
)

// TestSuspectSampleAllocationFree: with no History attached, a P sample and
// the Ω and Σ samples derived from ◇S allocate nothing — in the chaotic
// prefix and after it, at n=5 and at n=100. Process sets at these sizes are
// inline values, and the oracles read the crash times without a lock or a
// map. Like the net package's guards it runs only without the race detector,
// whose instrumentation allocates; CI invokes it in the no-race step.
func TestSuspectSampleAllocationFree(t *testing.T) {
	for _, n := range []int{5, 100} {
		pattern := model.NewFailurePattern(n)
		pattern.Crash(1, 3)
		pattern.Crash(model.ProcessID(n-1), 5)
		clock := &fakeClock{}
		perfect, err := Build(pattern, clock, MustParseSpec("perfect"))
		if err != nil {
			t.Fatal(err)
		}
		strong, err := Build(pattern, clock, MustParseSpec("eventually-strong{stabilize:50}"))
		if err != nil {
			t.Fatal(err)
		}
		samples := map[string]func(model.ProcessID){
			"P":    func(p model.ProcessID) { perfect.Suspects.At(p) },
			"◇S→Ω": func(p model.ProcessID) { strong.Omega.At(p) },
			"◇S→Σ": func(p model.ProcessID) { strong.Sigma.At(p) },
		}
		for _, now := range []model.Time{10, 100} {
			clock.t = now
			for name, sample := range samples {
				q := model.ProcessID(0)
				allocs := testing.AllocsPerRun(200, func() {
					sample(q)
					q = (q + 1) % model.ProcessID(n)
				})
				if allocs != 0 {
					t.Errorf("%s sample at n=%d, t=%d: %v allocations, want 0", name, n, now, allocs)
				}
			}
		}
	}
}
