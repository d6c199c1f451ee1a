package explore

import (
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/scenario"
)

// Mutator is one deterministic perturbation of a scenario configuration.
// Apply mutates cfg in place using draws from r and reports whether it was
// applicable (a crash-removal mutator on a crash-free config is not); an
// inapplicable or no-op application is re-rolled by the engine, so Apply
// should return false rather than leave cfg unchanged.
type Mutator struct {
	// Name labels the mutator in reports and per-mutator statistics.
	Name string
	// Weight is the relative selection weight (0 counts as 1).
	Weight float64
	// Apply perturbs cfg, drawing randomness only from r.
	Apply func(r *Rand, cfg *scenario.Config) bool
}

// weight returns the effective selection weight.
func (m Mutator) weight() float64 {
	if m.Weight <= 0 {
		return 1
	}
	return m.Weight
}

// Mutation bounds: crash times and delay ranges are drawn on the quantum
// lattice within these limits, detector ticks from {0, 25, .., maxTicks}.
// They bound the *mutation alphabet*, not the schedule space — a frontier
// search is the tool for pushing a single axis far out.
//
// Crash times draw from the full [0, maxCrashAt] window, which at 5ms spans
// several message round-trips at the mutated delay floor — deliberately
// covering the decision moments of the protocols under test. Under the
// goroutine-step scheduler a crash racing a decision is an ordinary (time,
// seq)-ordered event against a deterministic grant schedule, so even those
// runs are a pure function of the seed. (An earlier alphabet capped crashes
// at 500µs to keep them clear of decision moments, which the runtime before
// the step scheduler could not order reproducibly.)
const (
	maxCrashAt    = 5 * time.Millisecond
	delayFloor    = time.Millisecond
	maxDelayExtra = time.Millisecond     // mutated delay floor: [1ms, 2ms]
	maxDelaySpan  = 4 * time.Millisecond // mutated delay width above the floor
	maxTicks      = model.Time(200)
)

// DefaultMutators is the standard perturbation set over the given
// detector-class alphabet: seed churn, crash-schedule edits (add, drop,
// retime, retarget), delay-range redraws, detector-class swaps, and
// detector-quality perturbation along the parameters the current class
// actually consumes (per fd.Registry.Params — perturbing a parameter a
// class ignores would mint spurious novelty). A drop-rate mutator joins
// only for safety-only configs, where lost liveness is not a spurious
// failure.
func DefaultMutators(classes []fd.DetectorSpec) []Mutator {
	muts := []Mutator{
		{Name: "seed", Weight: 0.5, Apply: func(r *Rand, cfg *scenario.Config) bool {
			cfg.Seed = int64(r.Intn(1 << 30))
			return true
		}},
		{Name: "crash-add", Weight: 2, Apply: func(r *Rand, cfg *scenario.Config) bool {
			if len(cfg.Crashes) >= cfg.N-1 {
				return false // keep at least one process alive
			}
			p, ok := freeProcess(r, cfg)
			if !ok {
				return false
			}
			cfg.Crashes = append(cfg.Crashes, scenario.Crash{P: p, At: r.Quantized(maxCrashAt)})
			return true
		}},
		{Name: "crash-drop", Weight: 0.5, Apply: func(r *Rand, cfg *scenario.Config) bool {
			if len(cfg.Crashes) == 0 {
				return false
			}
			i := r.Intn(len(cfg.Crashes))
			cfg.Crashes = append(cfg.Crashes[:i], cfg.Crashes[i+1:]...)
			return true
		}},
		{Name: "crash-time", Apply: func(r *Rand, cfg *scenario.Config) bool {
			if len(cfg.Crashes) == 0 {
				return false
			}
			i := r.Intn(len(cfg.Crashes))
			cfg.Crashes[i].At = r.Quantized(maxCrashAt)
			return true
		}},
		{Name: "crash-proc", Apply: func(r *Rand, cfg *scenario.Config) bool {
			if len(cfg.Crashes) == 0 {
				return false
			}
			i := r.Intn(len(cfg.Crashes))
			p, ok := freeProcess(r, cfg)
			if !ok {
				return false
			}
			cfg.Crashes[i].P = p
			return true
		}},
		{Name: "delay", Weight: 0.5, Apply: func(r *Rand, cfg *scenario.Config) bool {
			cfg.MinDelay = delayFloor + r.Quantized(maxDelayExtra)
			cfg.MaxDelay = cfg.MinDelay + r.Quantized(maxDelaySpan)
			return true
		}},
		{Name: "detector-param", Weight: 0.5, Apply: func(r *Rand, cfg *scenario.Config) bool {
			keys := fd.DefaultRegistry().Params(cfg.Detector.Class)
			if len(keys) == 0 {
				return false
			}
			p, ok := cfg.Detector.Param(keys[r.Intn(len(keys))])
			if !ok {
				return false
			}
			v := r.Ticks(maxTicks)
			if v == *p {
				return false
			}
			*p = v
			return true
		}},
	}
	if len(classes) > 0 {
		muts = append(muts, Mutator{Name: "detector-class", Weight: 2, Apply: func(r *Rand, cfg *scenario.Config) bool {
			next := classes[r.Intn(len(classes))]
			if next == cfg.Detector {
				return false
			}
			cfg.Detector = next
			return true
		}})
	}
	muts = append(muts, Mutator{Name: "drop-rate", Weight: 0.5, Apply: func(r *Rand, cfg *scenario.Config) bool {
		if cfg.RequireTermination {
			return false // a lossy run legitimately loses liveness; only safety-only configs may mutate here
		}
		rates := []float64{0, 0.01, 0.05, 0.1, 0.2}
		v := rates[r.Intn(len(rates))]
		if v == cfg.DropRate {
			return false
		}
		cfg.DropRate = v
		return true
	}})
	return muts
}

// freeProcess draws a process that is not yet in the crash schedule.
func freeProcess(r *Rand, cfg *scenario.Config) (model.ProcessID, bool) {
	scheduled := map[model.ProcessID]bool{}
	for _, c := range cfg.Crashes {
		scheduled[c.P] = true
	}
	free := make([]model.ProcessID, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if !scheduled[model.ProcessID(i)] {
			free = append(free, model.ProcessID(i))
		}
	}
	if len(free) == 0 {
		return 0, false
	}
	return free[r.Intn(len(free))], true
}
