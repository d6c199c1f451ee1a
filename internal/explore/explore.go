// Package explore is the coverage-guided exploration subsystem: a
// fuzzer-style loop over the schedule space that replaces blind grids with
// feedback. The paper's claims are boundary claims — Ω+Σ is exactly enough
// for consensus, Ψ for NBAC — so the valuable runs sit on the edge of
// solvability, which uniform grids mostly miss; this package spends its run
// budget where behaviour is changing instead.
//
// The loop keeps a Corpus of configurations that each exhibited a behaviour
// class not seen before (novelty judged by SignatureOf, a lossy abstraction
// of Result.Fingerprint plus an outcome-shape signature), mutates corpus
// members with a deterministic seeded Mutator set, and spends more picks on
// entries whose children keep being novel (the energy schedule). Failing
// configurations are deduplicated by signature and fed through
// scenario.Minimize, so the output is a set of minimal reproducers, not a
// pile of noisy failures.
//
// Determinism is a hard contract: one exploration is a pure function of
// Options.Seed. Runs execute worker-parallel within a generation, but
// planning and corpus updates happen sequentially in generation order, and
// all randomness flows from one splitmix64 stream — the report's Canonical
// rendering is byte-identical across repeated invocations.
//
// Frontier (frontier.go) is the second search mode on the same probing
// machinery: instead of exploring outward it bisects one detector-quality
// axis to locate the measured solvability boundary per class.
package explore

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/scenario"
)

// Options configures one exploration.
type Options struct {
	// Seed is the master seed: the entire exploration (mutation choices,
	// energy evolution, corpus growth) is a pure function of it.
	Seed int64
	// Runs is the exploration's run budget (exploration runs only; the
	// minimisation phase is budgeted separately and reported as
	// MinimizeCandidates). Required.
	Runs int
	// Wall optionally bounds the exploration in wall-clock time; the budget
	// check runs between generations. 0 = no wall bound. A wall-bounded
	// exploration is NOT reproducible (the cut point depends on machine
	// speed); leave it 0 where determinism matters.
	Wall time.Duration
	// Batch is the generation size: how many mutated configs are planned
	// (sequentially, deterministically) and then run (worker-parallel)
	// before feedback is folded back into the corpus. Default 16.
	Batch int
	// Workers bounds the concurrent runs within a generation; 0 means
	// GOMAXPROCS.
	Workers int
	// Proto is the protocol under exploration. Required.
	Proto scenario.Protocol
	// Base is the exploration's starting configuration (and first corpus
	// entry). Required: use scenario.New(n, opts...).Config().
	Base scenario.Config
	// Mutators is the perturbation set; nil means DefaultMutators(Classes).
	Mutators []Mutator
	// Classes is the detector-class alphabet the default detector-class
	// mutator swaps between; ignored when Mutators is set explicitly.
	Classes []fd.DetectorSpec
	// MinimizeLimit caps how many distinct failure signatures are fed
	// through scenario.Minimize after the exploration (in discovery order).
	// 0 means 3; negative disables minimisation.
	MinimizeLimit int
	// SeedCorpus, if non-nil, preloads a previously serialized corpus
	// before the loop starts: its entries (with their energies), behaviour
	// set and failure dedup set are restored without consuming any run
	// budget, and the budget is spent mutating outward from them — the
	// cross-generation handoff of a campaign. The seeded entries reappear
	// in the report's corpus (in their stored order, ahead of new
	// discoveries), so -corpus-out always carries the full state forward.
	SeedCorpus *CorpusState
	// DepthSignal mixes the log-bucketed suspect-history depth into the
	// novelty signature. It is a real behaviour signal but a
	// scheduling-dependent one, so switching it on trades byte-for-byte
	// reproducibility for sensitivity.
	DepthSignal bool
	// TraceSignal mixes the step scheduler's bucketed trace shape (events,
	// messages, grants up to the trace boundary) into the novelty signature.
	// Unlike DepthSignal it stays on the reproducible side of the contract:
	// the counters are part of the pinned schedule, so explorations remain
	// byte-identical per seed with it on. Runs without a pinned trace
	// (timeout-tainted runs) share one "~" territory.
	TraceSignal bool
	// OnRun, if non-nil, streams every executed run as it completes (run is
	// the 1-based run index within the budget). Called concurrently from
	// worker goroutines.
	OnRun func(run int, res *scenario.Result)
}

// Entry is one corpus member: a configuration that exhibited a novel
// behaviour signature, plus its provenance and energy-schedule state.
type Entry struct {
	// Signature is the behaviour class this entry discovered.
	Signature string `json:"signature"`
	// Config is the configuration that exhibited it.
	Config scenario.Config `json:"config"`
	// Parent is the corpus index this entry was mutated from (-1 for the
	// base config), and Mutator the mutator that produced it.
	Parent  int    `json:"parent"`
	Mutator string `json:"mutator"`
	// FoundAtRun is the 1-based run index that discovered it.
	FoundAtRun int `json:"found_at_run"`
	// Failing records whether the discovering run violated its spec.
	Failing bool `json:"failing,omitempty"`
	// Picks counts how often the entry was chosen as a mutation parent;
	// Children counts how many of its mutants were themselves novel.
	Picks    int `json:"picks"`
	Children int `json:"children"`
	// Energy is the entry's current selection weight — serialized with the
	// corpus so a resumed exploration keeps its heat distribution.
	Energy float64 `json:"energy"`
}

// The energy schedule: an entry that exhibited a behaviour class never seen
// before (BehaviourOf) enters the corpus hot — behaviour changes cluster, so
// the edge where behaviour last moved is where the next discovery most
// likely neighbours — while an entry that merely opened new configuration
// territory with familiar behaviour enters at base energy. A novel child
// also re-heats its parent (capped); every duplicate child cools the parent
// (floored, so no entry starves entirely). The corpus therefore concentrates
// picks where behaviour is changing instead of spreading them uniformly —
// which is the entire advantage over a uniform grid.
const (
	baseEnergy      = 1.0
	hotEnergy       = 4.0
	energyReward    = 0.75
	energyCap       = 4.0
	energyDecay     = 0.9
	energyFloor     = 0.15
	planAttempts    = 16 // mutation re-rolls per planned run before accepting a duplicate
	defaultBatch    = 16
	defaultMinimize = 3
)

// Failure is one deduplicated failing behaviour class found during
// exploration: the first run that exhibited it, with its full violation
// list and fingerprint.
type Failure struct {
	Signature   string          `json:"signature"`
	Run         int             `json:"run"`
	Violations  []string        `json:"violations"`
	Fingerprint string          `json:"fingerprint"`
	Config      scenario.Config `json:"config"`
}

// MinimizedFailure is a delta-debugged reproducer of one found failure.
type MinimizedFailure struct {
	FromSignature string          `json:"from_signature"`
	FromRun       int             `json:"from_run"`
	Candidates    int             `json:"candidates"`
	Violations    []string        `json:"violations"`
	Fingerprint   string          `json:"fingerprint"`
	Config        scenario.Config `json:"config"`
}

// MutatorStat is one mutator's share of the exploration.
type MutatorStat struct {
	Name string `json:"name"`
	// Applied counts executed runs planned through this mutator; Novel
	// counts how many of them discovered a new signature.
	Applied int `json:"applied"`
	Novel   int `json:"novel"`
}

// Explore runs the coverage-guided loop and returns its report. It returns
// an error only for invalid options; a cancelled context ends the
// exploration early with the partial report (Cancelled counts the runs the
// cancellation swallowed).
func Explore(ctx context.Context, opts Options) (*Report, error) {
	if opts.Proto == nil {
		return nil, fmt.Errorf("explore: Options.Proto is required")
	}
	if opts.Base.N <= 0 {
		return nil, fmt.Errorf("explore: Options.Base is required (N = %d)", opts.Base.N)
	}
	if opts.Runs <= 0 {
		return nil, fmt.Errorf("explore: Options.Runs must be positive, got %d", opts.Runs)
	}
	batch := opts.Batch
	if batch <= 0 {
		batch = defaultBatch
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	muts := opts.Mutators
	if muts == nil {
		muts = DefaultMutators(opts.Classes)
	}
	if len(muts) == 0 {
		return nil, fmt.Errorf("explore: no mutators")
	}
	minimize := opts.MinimizeLimit
	if minimize == 0 {
		minimize = defaultMinimize
	}

	start := time.Now()
	rng := newRand(opts.Seed)
	rep := &Report{
		Seed:   opts.Seed,
		Proto:  opts.Proto.Name(),
		N:      opts.Base.N,
		Budget: opts.Runs,
	}
	var (
		corpus     []*Entry
		sigIndex   = map[string]int{}  // signature -> corpus index
		behaviours = map[string]bool{} // behaviour parts already seen
		tried      = map[string]bool{} // config keys already planned
		failures   []*Failure
		failSigs   = map[string]bool{}
	)
	if opts.SeedCorpus != nil {
		for i := range opts.SeedCorpus.Entries {
			e := opts.SeedCorpus.Entries[i] // copy
			if _, dup := sigIndex[e.Signature]; dup {
				continue
			}
			if e.Energy <= 0 {
				e.Energy = baseEnergy
			}
			sigIndex[e.Signature] = len(corpus)
			corpus = append(corpus, &e)
			tried[e.Config.Key()] = true
		}
		for _, b := range opts.SeedCorpus.Behaviours {
			behaviours[b] = true
		}
		for _, s := range opts.SeedCorpus.FailureSigs {
			failSigs[s] = true
		}
	}
	mutStats := map[string]*MutatorStat{}
	statOf := func(name string) *MutatorStat {
		s, ok := mutStats[name]
		if !ok {
			s = &MutatorStat{Name: name}
			mutStats[name] = s
			rep.Mutators = append(rep.Mutators, s)
		}
		return s
	}

	// plan chooses one generation of configurations: parents by energy,
	// mutators by weight, each re-rolled until the resulting config has not
	// been planned before (or attempts run out — a duplicate config still
	// burns budget honestly rather than stalling the loop).
	type job struct {
		cfg     scenario.Config
		parent  int
		mutator string
	}
	mutWeights := make([]float64, len(muts))
	for i, m := range muts {
		mutWeights[i] = m.weight()
	}
	plan := func(size int) []job {
		if len(corpus) == 0 {
			// Generation zero: the base configuration itself.
			cfg := opts.Base.Clone()
			tried[cfg.Key()] = true
			return []job{{cfg: cfg, parent: -1, mutator: "base"}}
		}
		energies := make([]float64, len(corpus))
		jobs := make([]job, 0, size)
		for len(jobs) < size {
			for i, e := range corpus {
				energies[i] = e.Energy
			}
			parent := rng.Pick(energies)
			j := job{parent: parent}
			for attempt := 0; attempt < planAttempts; attempt++ {
				mi := rng.Pick(mutWeights)
				cfg := corpus[parent].Config.Clone()
				if !muts[mi].Apply(rng, &cfg) {
					continue
				}
				j.cfg, j.mutator = cfg, muts[mi].Name
				if !tried[cfg.Key()] {
					break
				}
			}
			if j.mutator == "" {
				continue // nothing applicable from this parent; re-pick
			}
			tried[j.cfg.Key()] = true
			corpus[parent].Picks++
			jobs = append(jobs, j)
		}
		return jobs
	}

	deadline := time.Time{}
	if opts.Wall > 0 {
		deadline = start.Add(opts.Wall)
	}

	for rep.Runs+rep.Cancelled < opts.Runs && ctx.Err() == nil {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		jobs := plan(min(batch, opts.Runs-rep.Runs-rep.Cancelled))

		// Execute the generation worker-parallel; results land by index so
		// the feedback pass below is order-deterministic.
		results := make([]scenario.Result, len(jobs))
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := range jobs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				cfg := jobs[i].cfg
				// Trace-signal explorations run every config with the probe
				// analyzer attached, so traceShape can fold probe statistics
				// into the signature. Observe-only and excluded from
				// Config.Key, so corpus and tried-set identity are unchanged.
				cfg.Probes = cfg.Probes || opts.TraceSignal
				results[i] = scenario.FromConfig(cfg).Run(ctx, opts.Proto)
				if opts.OnRun != nil {
					opts.OnRun(rep.Runs+rep.Cancelled+i+1, &results[i])
				}
			}(i)
		}
		wg.Wait()

		// Feedback, sequentially in generation order.
		for i := range jobs {
			res := &results[i]
			if !res.Verdict.OK && ctx.Err() != nil {
				// In flight at cancellation: the failure is the cancellation
				// echoing through the run's timeout backstop, not a
				// discovery — same classification Sweep draws.
				rep.Cancelled++
				continue
			}
			rep.Runs++
			run := rep.Runs + rep.Cancelled
			stat := statOf(jobs[i].mutator)
			stat.Applied++
			sig := SignatureOf(res, opts.DepthSignal, opts.TraceSignal)
			if _, seen := sigIndex[sig]; !seen {
				sigIndex[sig] = len(corpus)
				energy := baseEnergy
				if behaviour := BehaviourOf(res); !behaviours[behaviour] {
					behaviours[behaviour] = true
					energy = hotEnergy
				}
				corpus = append(corpus, &Entry{
					Signature:  sig,
					Config:     res.Config,
					Parent:     jobs[i].parent,
					Mutator:    jobs[i].mutator,
					FoundAtRun: run,
					Failing:    !res.Verdict.OK,
					Energy:     energy,
				})
				stat.Novel++
				if p := jobs[i].parent; p >= 0 {
					corpus[p].Children++
					corpus[p].Energy = min(energyCap, corpus[p].Energy+energyReward)
				}
			} else {
				rep.Duplicates++
				if p := jobs[i].parent; p >= 0 {
					corpus[p].Energy = max(energyFloor, corpus[p].Energy*energyDecay)
				}
			}
			if !res.Verdict.OK {
				if rep.FirstFailureRun == 0 {
					rep.FirstFailureRun = run
				}
				if !failSigs[sig] {
					failSigs[sig] = true
					failures = append(failures, &Failure{
						Signature:   sig,
						Run:         run,
						Violations:  res.Verdict.Violations,
						Fingerprint: res.Fingerprint(),
						Config:      res.Config,
					})
				}
			}
		}
	}
	if ctx.Err() != nil {
		// Budget never handed out counts as cancelled too; runs skipped by
		// an expired wall budget, by contrast, simply were not part of this
		// exploration.
		rep.Cancelled += opts.Runs - rep.Runs - rep.Cancelled
	}

	// Minimisation: the found failures, deduplicated by signature during
	// the loop, shrink to minimal reproducers — deduplicated again by
	// minimal fingerprint, since distinct signatures often share one root
	// cause.
	if minimize > 0 {
		seen := map[string]bool{}
		for i, f := range failures {
			if i >= minimize || ctx.Err() != nil {
				break
			}
			minRes, err := scenario.Minimize(ctx, f.Config, opts.Proto)
			rep.MinimizeCandidates += minRes.Candidates
			if err != nil {
				continue
			}
			if seen[minRes.Fingerprint] {
				continue
			}
			seen[minRes.Fingerprint] = true
			rep.Minimized = append(rep.Minimized, MinimizedFailure{
				FromSignature: f.Signature,
				FromRun:       f.Run,
				Candidates:    minRes.Candidates,
				Violations:    minRes.Result.Verdict.Violations,
				Fingerprint:   minRes.Fingerprint,
				Config:        minRes.Config,
			})
		}
	}

	for _, e := range corpus {
		rep.Corpus = append(rep.Corpus, *e)
	}
	for _, f := range failures {
		rep.Failures = append(rep.Failures, *f)
	}
	rep.Novel = len(corpus)
	rep.Behaviours = sortedKeys(behaviours)
	rep.FailureSigs = sortedKeys(failSigs)
	rep.Elapsed = time.Since(start)
	if rep.Runs > 0 && rep.Elapsed > 0 {
		rep.RunsPerSec = float64(rep.Runs) / rep.Elapsed.Seconds()
	}
	return rep, nil
}
