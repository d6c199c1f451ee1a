package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"weakestfd/internal/campaign"
	"weakestfd/internal/cliutil"
	"weakestfd/internal/scenario"
)

// workloadNames lists the workloads in the order `--workload all` runs them.
var workloadNames = []string{"sweep-n5", "sweep-n100", "campaign-explore", "liveness-n5"}

// passResult is one untraced pass of a workload through its public entry
// point: the same inputs every pass, so the digests must repeat.
type passResult struct {
	runs    int
	failed  int
	elapsed time.Duration
	// samples are the per-run latencies in ms: Result.Wall for sweeps, the
	// unit wall divided by its run count for campaigns.
	samples []float64
	// busy is Σ Result.Wall over the pass (sweeps only).
	busy time.Duration
	// timedOut: some run of the pass ended at its wall-clock Timeout, so
	// the pass's wall time is not stretched by CPU the hypervisor stole.
	timedOut bool
	hashes   []string // per-run hashes in grid order (sweeps only)
	bad      []bool   // per run: cancelled, or not the expected verdict
	digest   string
}

// workload is one benchmark workload. setup builds the inputs from the seed
// and warms up; pass runs them once through the public entry point the CLI
// uses; points returns the configurations the traced run drives itself,
// with the per-run hashes an untraced run of each produced.
type workload interface {
	setup(ctx context.Context) error
	pass(ctx context.Context) passResult
	points(ctx context.Context) (cfgs []scenario.Config, hashes []string, err error)
	// exploreSpec is the explore-layer probe of this workload.
	exploreSpec() campaign.ExploreSpec
	// campaignManifest is the campaign-layer probe of this workload.
	campaignManifest() campaign.Manifest
	// expect reports whether one run's result is what the workload expects.
	expect(res *scenario.Result) bool
	// mergedOK reports whether the merged report of campaignManifest
	// accounts for every run, cancels none and holds the expected verdicts.
	mergedOK(merged *campaign.Merged) bool
	n() int
	// tail is the tail percentile (as a quantile) and the chunk of
	// consecutive samples it is taken over, sized to leave 10 beyond it
	// (0: all samples).
	tail() (q float64, chunk int)
	probes() bool
	// sampleTerm adds the fd-sample term to the cost model.
	sampleTerm() bool
}

// newWorkload builds the named workload over the seed. tiny shrinks every
// size for the smoke test.
func newWorkload(name string, seed int64, workers int, tiny bool, tmp string) (workload, error) {
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	switch name {
	case "sweep-n5":
		return &sweepWorkload{spec: cliutil.GridSpec{
			Proto: "consensus", N: 5, Seeds: seedList(seed, pick(80, 1)),
			Detectors: "omega-sigma,perfect,eventually-perfect{stabilize:50}",
			Delays:    "1ms:50ms", Crashes: "-;4@5ms;0@8ms", Timeout: "30s",
			Workers: workers, Probes: true,
		}, tailQ: 0.99, tailChunk: 1000, exploreRuns: pick(400, 32), exploreTimeout: "250ms", seed: seedOf(seed, 0)}, nil
	case "sweep-n100":
		return &sweepWorkload{spec: cliutil.GridSpec{
			Proto: "consensus", N: 100, Seeds: seedList(seed, pick(4, 1)),
			Detectors: "omega-sigma", Delays: "1ms:50ms", Crashes: "-;4@5ms;0@8ms", Timeout: "30s",
			Workers: workers,
		}, tailQ: 0.90, tailChunk: 100, exploreRuns: pick(24, 4), exploreTimeout: "2s", seed: seedOf(seed, 0)}, nil
	case "liveness-n5":
		// The initial leader crashes at 0 under ◇S: the fallback majority
		// contains the crashed process, so no run ever decides and each one
		// ends at the fixed wall-clock Timeout.
		return &sweepWorkload{spec: cliutil.GridSpec{
			Proto: "consensus", N: 5, Seeds: seedList(seed, pick(8, 2)),
			Detectors: "eventually-strong{stabilize:50}", Delays: "1ms:50ms", Crashes: "0@0s", Timeout: "100ms",
			Workers: workers,
		}, tailQ: 0.90, tailChunk: 100, exploreRuns: pick(16, 4), exploreTimeout: "100ms", liveness: true, seed: seedOf(seed, 0)}, nil
	case "campaign-explore":
		return &campaignWorkload{m: campaign.Manifest{
			Name: "perfbench", Kind: campaign.KindExplore, Units: pick(8, 2), Shards: 1,
			Explore: &campaign.ExploreSpec{
				Proto: "consensus", N: 5, Seed: seedOf(seed, 0), Runs: pick(400, 32),
				Classes: "omega-sigma,perfect", Delays: "1ms:3ms", TraceSignal: true,
			},
		}, workers: workers, tmp: tmp}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// seedOf derives the i-th scenario seed of a workload seed (splitmix64),
// kept positive and below 2^31 so every CLI grammar accepts it.
func seedOf(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>33) + 1
}

func seedList(seed int64, k int) string {
	parts := make([]string, k)
	for i := range parts {
		parts[i] = fmt.Sprint(seedOf(seed, i))
	}
	return strings.Join(parts, ",")
}

// runHash identifies one run's deterministic content: its trace
// fingerprint plus its outcome fingerprint (config, verdict, outcomes).
func runHash(res *scenario.Result) string {
	sum := sha256.Sum256([]byte(res.TraceFingerprint + "\n" + res.Fingerprint()))
	return hex.EncodeToString(sum[:])
}

// digestOf folds per-run hashes, in grid order, into one digest.
func digestOf(hashes []string) string {
	h := sha256.New()
	for _, s := range hashes {
		h.Write([]byte(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---- sweep workloads: cliutil.BuildGrid + scenario.Sweep, as cmd/sweep ----

type sweepWorkload struct {
	spec        cliutil.GridSpec
	tailQ       float64
	tailChunk   int
	exploreRuns int
	// exploreTimeout bounds the explore probe's runs: mutated configurations
	// may crash a majority, which ◇ classes cannot survive, so they must not
	// wait out the sweep's 30s backstop.
	exploreTimeout string
	liveness       bool
	seed           int64 // the explore probe's seed

	base  *scenario.Scenario
	grid  scenario.Grid
	proto scenario.Protocol
}

func (w *sweepWorkload) n() int               { return w.spec.N }
func (w *sweepWorkload) tail() (float64, int) { return w.tailQ, w.tailChunk }
func (w *sweepWorkload) probes() bool         { return w.spec.Probes }

// sampleTerm: sweep-n5 is the workload that mixes classes with and without
// a suspect view, so only there do samples vary independently of grants.
func (w *sweepWorkload) sampleTerm() bool { return w.spec.Probes }

// expect is the workload's expected-verdict table: every run passes and
// keeps a clean trace, except on liveness-n5, where every run fails the
// termination clause and nothing else.
func (w *sweepWorkload) expect(res *scenario.Result) bool {
	if !w.liveness {
		return res.Verdict.OK && res.TraceSummary.TaintReason == "" && res.TraceFingerprint != ""
	}
	if res.Verdict.OK || len(res.Verdict.Violations) == 0 {
		return false
	}
	for _, v := range res.Verdict.Violations {
		if !strings.Contains(v, "termination violated") {
			return false
		}
	}
	return true
}

func (w *sweepWorkload) mergedOK(merged *campaign.Merged) bool {
	s := merged.Sweep
	if s == nil || !s.Complete || s.Cancelled != 0 || s.Runs != s.GridSize {
		return false
	}
	if w.liveness {
		return s.Faulted == s.Runs
	}
	return s.Passed == s.Runs
}

func (w *sweepWorkload) build(spec cliutil.GridSpec) (*scenario.Scenario, scenario.Grid, scenario.Protocol, error) {
	base, grid, proto, err := cliutil.BuildGrid(spec)
	if err != nil {
		return nil, grid, nil, err
	}
	grid.KeepFailures = scenario.KeepAllCounts
	return base, grid, proto, nil
}

// warmSeeds is how many of the pass's seeds set-up sweeps to warm up: more
// than one, so that set-up time does not hinge on one seed's grid points.
const warmSeeds = 4

// setup builds the grid and warms up with one sweep over the first
// warmSeeds seeds' grid points.
func (w *sweepWorkload) setup(ctx context.Context) error {
	var err error
	if w.base, w.grid, w.proto, err = w.build(w.spec); err != nil {
		return err
	}
	warm := w.spec
	seeds := strings.Split(w.spec.Seeds, ",")
	warm.Seeds = strings.Join(seeds[:min(warmSeeds, len(seeds))], ",")
	base, grid, proto, err := w.build(warm)
	if err != nil {
		return err
	}
	scenario.Sweep(ctx, base, grid, proto)
	return nil
}

func (w *sweepWorkload) pass(ctx context.Context) passResult {
	size := w.grid.Size()
	hashes := make([]string, size)
	walls := make([]time.Duration, size)
	bad := make([]bool, size)
	tainted := make([]bool, size)
	grid := w.grid
	grid.OnRun = func(i int, res *scenario.Result) {
		// Each index is reported once, by one worker: no two writers share
		// an element.
		hashes[i] = runHash(res)
		walls[i] = res.Wall
		bad[i] = !w.expect(res)
		tainted[i] = res.TraceSummary.TaintReason != ""
	}
	start := time.Now()
	sr := scenario.Sweep(ctx, w.base, grid, w.proto)
	p := passResult{runs: sr.Runs, elapsed: time.Since(start), hashes: hashes, bad: bad}
	for i := range hashes {
		bad[i] = bad[i] || hashes[i] == "" // a cancelled run is never reported
		if bad[i] {
			p.failed++
		}
		p.timedOut = p.timedOut || tainted[i]
		p.samples = append(p.samples, ms(walls[i]))
		p.busy += walls[i]
	}
	p.digest = digestOf(hashes)
	return p
}

func (w *sweepWorkload) points(ctx context.Context) ([]scenario.Config, []string, error) {
	ref := w.pass(ctx)
	if ref.failed > 0 {
		return nil, nil, fmt.Errorf("reference pass: %d of %d runs failed", ref.failed, ref.runs)
	}
	baseCfg := w.base.Config()
	cfgs := make([]scenario.Config, w.grid.Size())
	for i := range cfgs {
		cfgs[i] = w.grid.ConfigAt(baseCfg, i)
		cfgs[i].Probes = w.grid.Probes
	}
	return cfgs, ref.hashes, nil
}

func (w *sweepWorkload) exploreSpec() campaign.ExploreSpec {
	crashes := w.spec.Crashes
	if strings.Contains(crashes, ";") {
		crashes = "" // the explore base takes one schedule; start crash-free
	}
	return campaign.ExploreSpec{
		Proto: w.spec.Proto, N: w.spec.N, Seed: w.seed, Runs: w.exploreRuns,
		Classes: w.spec.Detectors, Crashes: crashes, Delays: w.spec.Delays, Timeout: w.exploreTimeout,
		TraceSignal: true,
	}
}

func (w *sweepWorkload) campaignManifest() campaign.Manifest {
	g := w.spec
	g.Workers = 0
	return campaign.Manifest{Name: "perfbench-sweep", Kind: campaign.KindSweep, Units: min(4, w.grid.Size()), Shards: 1, Grid: &g}
}

// ---- campaign-explore: campaign.Plan, RunShard and MergeDir, as cmd/campaign ----

type campaignWorkload struct {
	m       campaign.Manifest
	workers int
	tmp     string
}

func (w *campaignWorkload) n() int { return w.m.Explore.N }

// tail: p90 over all unit samples; a window holds too few units to chunk.
func (w *campaignWorkload) tail() (float64, int) { return 0.90, 0 }
func (w *campaignWorkload) probes() bool         { return false }
func (w *campaignWorkload) sampleTerm() bool     { return false }

// expect: the alphabet (omega-sigma, perfect) solves consensus on every
// configuration the mutators can reach, so every run passes untainted.
func (w *campaignWorkload) expect(res *scenario.Result) bool {
	return res.Verdict.OK && res.TraceSummary.TaintReason == "" && res.TraceFingerprint != ""
}

func (w *campaignWorkload) mergedOK(merged *campaign.Merged) bool {
	e := merged.Explore
	return e != nil && e.Runs == w.m.Units*w.m.Explore.Runs && e.Cancelled == 0 && len(e.Failures) == 0 && e.Reports == w.m.Units
}

// setup warms up with a one-unit campaign of the same spec.
func (w *campaignWorkload) setup(ctx context.Context) error {
	warm := w.m
	warm.Units = 1
	_, err := runCampaign(ctx, w.tmp, warm, w.workers)
	return err
}

func (w *campaignWorkload) pass(ctx context.Context) passResult {
	cr, err := runCampaign(ctx, w.tmp, w.m, w.workers)
	want := w.m.Units * w.m.Explore.Runs
	p := passResult{runs: want, elapsed: cr.total}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: campaign: %v\n", err)
		p.failed = want
		return p
	}
	if !w.mergedOK(cr.merged) {
		p.failed = want
	}
	for _, u := range cr.units {
		p.samples = append(p.samples, ms(u)/float64(w.m.Explore.Runs))
	}
	p.digest = cr.digest
	return p
}

// points explores unit 0 of the campaign directly and returns its runs'
// configurations in run order: the traced run re-drives exactly those.
func (w *campaignWorkload) points(ctx context.Context) ([]scenario.Config, []string, error) {
	ex, err := exploreUnit(ctx, w.m.Explore, w.workers)
	if err != nil {
		return nil, nil, err
	}
	return ex.cfgs, ex.hashes, nil
}

func (w *campaignWorkload) exploreSpec() campaign.ExploreSpec { return *w.m.Explore }
func (w *campaignWorkload) campaignManifest() campaign.Manifest {
	return w.m
}

// campaignRun times one whole campaign: plan, each unit, merge.
type campaignRun struct {
	plan, merge, total time.Duration
	units              []time.Duration
	merged             *campaign.Merged
	digest             string
}

// runCampaign plans m in a fresh directory under root, runs its only shard
// and merges the directory, timing each step. The directory is removed
// afterwards.
func runCampaign(ctx context.Context, root string, m campaign.Manifest, workers int) (campaignRun, error) {
	var cr campaignRun
	dir, err := os.MkdirTemp(root, "campaign-")
	if err != nil {
		return cr, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	if err := campaign.Plan(dir, &m); err != nil {
		return cr, err
	}
	t1 := time.Now()
	var mu sync.Mutex
	last := t1
	_, _, err = campaign.RunShard(ctx, campaign.RunOptions{Dir: dir, Shard: 1, Workers: workers,
		OnUnit: func(int, int) {
			mu.Lock()
			defer mu.Unlock()
			now := time.Now()
			cr.units = append(cr.units, now.Sub(last))
			last = now
		}})
	if err != nil {
		return cr, err
	}
	t2 := time.Now()
	merged, err := campaign.MergeDir(dir)
	if err != nil {
		return cr, err
	}
	t3 := time.Now()
	cr.plan, cr.merge, cr.total = t1.Sub(t0), t3.Sub(t2), t3.Sub(t0)
	cr.merged = merged
	sum := sha256.Sum256([]byte(merged.Canonical()))
	cr.digest = hex.EncodeToString(sum[:])
	return cr, nil
}
