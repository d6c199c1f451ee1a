package scenario

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"weakestfd/internal/fd"
)

// detectorAxis is the cross-class comparison grid of the acceptance
// criterion: the paper's family plus the three Chandra–Toueg classes.
func detectorAxis() []fd.DetectorSpec {
	return []fd.DetectorSpec{
		{Class: fd.ClassOmegaSigma},
		{Class: fd.ClassPerfect},
		fd.MustParseSpec("eventually-perfect{stabilize:50}"),
		fd.MustParseSpec("eventually-strong{stabilize:50}"),
	}
}

// TestSweepDetectorAxis sweeps one consensus grid across four named detector
// specs in a single invocation and checks the per-spec aggregation: every
// spec gets its exact share of the grid, the shares sum to the sweep totals,
// and on a crash-free grid every class solves consensus.
func TestSweepDetectorAxis(t *testing.T) {
	specs := detectorAxis()
	grid := Grid{
		Seeds:     []int64{41, 42, 43},
		Detectors: specs,
		Delays:    []DelayRange{{0, 200 * time.Microsecond}, {time.Millisecond, 5 * time.Millisecond}},
	}
	if got, want := grid.Size(), 3*4*2; got != want {
		t.Fatalf("grid size = %d, want %d", got, want)
	}
	res := Sweep(context.Background(), New(5), grid, Consensus{})
	if len(res.Detectors) != len(specs) {
		t.Fatalf("per-detector counts: %d entries, want %d", len(res.Detectors), len(specs))
	}
	var runs, passed int
	for i, d := range res.Detectors {
		if d.Spec != specs[i].String() {
			t.Fatalf("detector %d spec = %q, want %q", i, d.Spec, specs[i])
		}
		if d.Runs != grid.Size()/len(specs) {
			t.Fatalf("detector %q ran %d points, want %d", d.Spec, d.Runs, grid.Size()/len(specs))
		}
		if d.Passed+d.Faulted+d.Cancelled != d.Runs {
			t.Fatalf("detector %q counts do not partition: %+v", d.Spec, d)
		}
		runs += d.Runs
		passed += d.Passed
	}
	if runs != res.Runs || passed != res.Passed {
		t.Fatalf("per-detector sums %d/%d diverge from sweep totals %d/%d", runs, passed, res.Runs, res.Passed)
	}
	if !res.AllPassed() {
		t.Fatalf("crash-free cross-class sweep failed: %d of %d, first: %v", res.Faulted, res.Runs, firstViolation(res))
	}
}

// TestSweepDetectorAxisSeparatesClasses pins the class physics the axis
// exists to expose: with the initial leader crashed at time zero, the exact
// classes and stabilising ◇P still solve consensus, while ◇S — whose
// converged quorum emulation falls back to the fixed lowest-id majority,
// which contains the crashed process — loses termination on every point.
func TestSweepDetectorAxisSeparatesClasses(t *testing.T) {
	specs := detectorAxis()
	grid := Grid{
		Seeds:     []int64{51, 52},
		Detectors: specs,
	}
	base := New(5,
		WithCrash(0, 0),
		WithTimeout(time.Second),
	)
	res := Sweep(context.Background(), base, grid, Consensus{})
	want := map[string]int{
		specs[0].String(): 2, // omega-sigma: Σ completeness routes around the crash
		specs[1].String(): 2, // perfect: complement-Σ ditto
		specs[2].String(): 2, // ◇P: recovers once the prefix stabilises
		specs[3].String(): 0, // ◇S: fixed-majority fallback contains the crashed p0
	}
	for _, d := range res.Detectors {
		if d.Passed != want[d.Spec] {
			t.Fatalf("detector %q passed %d of %d, want %d (full table: %+v)",
				d.Spec, d.Passed, d.Runs, want[d.Spec], res.Detectors)
		}
	}
	if res.Faulted != 2 {
		t.Fatalf("Faulted = %d, want exactly the ◇S points", res.Faulted)
	}
}

// TestGridDetectorRowMajorLayout pins the expansion order with the detector
// axis in place: seeds outermost, then detectors, then delays, then crash
// schedules.
func TestGridDetectorRowMajorLayout(t *testing.T) {
	specA, specB := fd.DetectorSpec{Class: fd.ClassPerfect}, fd.MustParseSpec("eventually-perfect{stabilize:9}")
	grid := Grid{
		Seeds:     []int64{1, 2},
		Detectors: []fd.DetectorSpec{specA, specB},
		Delays:    []DelayRange{{0, 0}, {0, time.Millisecond}},
		Crashes:   [][]Crash{nil, {{P: 1, At: 0}}},
	}
	base := New(3).Config()
	if got, want := grid.Size(), 2*2*2*2; got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
	for i := 0; i < grid.Size(); i++ {
		cfg := grid.ConfigAt(base, i)
		wantCrash := i % 2
		wantDelay := (i / 2) % 2
		wantDet := (i / 4) % 2
		wantSeed := i / 8
		if got := len(cfg.Crashes); got != wantCrash {
			t.Fatalf("index %d: %d crashes, want %d", i, got, wantCrash)
		}
		if (cfg.MaxDelay != 0) != (wantDelay == 1) {
			t.Fatalf("index %d: max delay %v, want slot %d", i, cfg.MaxDelay, wantDelay)
		}
		wantSpec := []fd.DetectorSpec{specA, specB}[wantDet]
		if cfg.Detector != wantSpec {
			t.Fatalf("index %d: detector %v, want %v", i, cfg.Detector, wantSpec)
		}
		if cfg.Seed != []int64{1, 2}[wantSeed] {
			t.Fatalf("index %d: seed %d, want %d", i, cfg.Seed, []int64{1, 2}[wantSeed])
		}
	}
}

// TestSweepDetectorAxisDeterministic extends the determinism family across
// the new axis: repeated sweeps of a detector grid yield byte-identical
// per-index fingerprints and identical per-spec aggregates. Identical
// proposals keep every point schedule-determined — during the ◇ classes'
// chaotic prefix each process trusts itself, so with distinct proposals the
// winning ballot (legitimately) depends on goroutine scheduling.
func TestSweepDetectorAxisDeterministic(t *testing.T) {
	grid := Grid{
		Seeds:     []int64{61, 62},
		Detectors: detectorAxis(),
		Workers:   4,
	}
	base := New(4)
	proto := Consensus{Proposals: []any{9, 9, 9, 9}}
	collect := func() (map[int]string, SweepResult) {
		fps := make(map[int]string)
		var mu sync.Mutex
		g := grid
		g.OnRun = func(i int, res *Result) {
			mu.Lock()
			fps[i] = res.Fingerprint()
			mu.Unlock()
		}
		res := Sweep(context.Background(), base, g, proto)
		return fps, res
	}
	fpsA, resA := collect()
	fpsB, resB := collect()
	if !resA.AllPassed() {
		t.Fatalf("detector sweep failed: %v", firstViolation(resA))
	}
	if len(fpsA) != grid.Size() || len(fpsB) != grid.Size() {
		t.Fatalf("fingerprint coverage %d/%d of %d", len(fpsA), len(fpsB), grid.Size())
	}
	for i, fp := range fpsA {
		if fpsB[i] != fp {
			t.Fatalf("fingerprint at grid index %d diverged across sweeps\n--- first ---\n%s\n--- second ---\n%s", i, fp, fpsB[i])
		}
	}
	for i := range resA.Detectors {
		if resA.Detectors[i] != resB.Detectors[i] {
			t.Fatalf("per-spec counts diverged: %+v vs %+v", resA.Detectors[i], resB.Detectors[i])
		}
	}
}

// TestFingerprintCarriesDetectorSpec: the canonical spec rendering is part of
// the run fingerprint, so cross-class sweep results stay distinguishable.
func TestFingerprintCarriesDetectorSpec(t *testing.T) {
	res := New(3, WithDetector(fd.MustParseSpec("perfect{suspect:4}"))).Run(context.Background(), Consensus{})
	if !res.Verdict.OK {
		t.Fatalf("perfect-class consensus failed: %v", res.Verdict)
	}
	if !strings.Contains(res.Fingerprint(), "det=perfect{suspect:4}") {
		t.Fatalf("fingerprint lacks the canonical spec:\n%s", res.Fingerprint())
	}
}

// TestProtocolsRefuseMissingDetectors: a class that cannot honestly provide a
// detector refuses the protocols that need it — the sweep-visible form of
// "◇P does not solve NBAC".
func TestProtocolsRefuseMissingDetectors(t *testing.T) {
	ctx := context.Background()
	spec := fd.MustParseSpec("eventually-perfect{stabilize:10}")
	for _, proto := range []Protocol{QC{}, NBAC{}, NBACQC{}} {
		res := New(3, WithDetector(spec)).Run(ctx, proto)
		if res.Verdict.OK {
			t.Fatalf("%s ran under %v, want a setup refusal", proto.Name(), spec)
		}
		if msg := strings.Join(res.Verdict.Violations, " "); !strings.Contains(msg, "provides no") {
			t.Fatalf("%s: violation does not name the missing detector: %v", proto.Name(), msg)
		}
	}
}

// TestConsensusUnderEachClass runs single scenarios (not a sweep) against
// every built-in class, crash-free: each must decide and pass the spec.
func TestConsensusUnderEachClass(t *testing.T) {
	ctx := context.Background()
	for _, spec := range detectorAxis() {
		res := New(4, WithDetector(spec)).Run(ctx, Consensus{})
		if !res.Verdict.OK {
			t.Fatalf("consensus under %v failed: %v", spec, res.Verdict)
		}
	}
}

// TestMinimizeZeroesIrrelevantDetectorSpec: detector perturbation that has
// nothing to do with the failure is removed in one zero-spec pass, and the
// surviving config carries the pristine class.
func TestMinimizeZeroesIrrelevantDetectorSpec(t *testing.T) {
	cfg := failingMajorityConfig()
	cfg.Detector = fd.MustParseSpec("omega-sigma{suspect:6,detect:11,switch:7}")
	min, err := Minimize(context.Background(), cfg, Consensus{Majority: true})
	if err != nil {
		t.Fatalf("minimize: %v", err)
	}
	if want := (fd.DetectorSpec{Class: "omega-sigma"}); min.Config.Detector != want {
		t.Fatalf("minimal spec = %+v, want zeroed %+v", min.Config.Detector, want)
	}
	if len(min.Config.Crashes) != 3 {
		t.Fatalf("minimal schedule has %d crashes, want 3", len(min.Config.Crashes))
	}
}

// TestHugeSuspicionDelayDoesNotWrap is the regression test for crash
// visibility at the largest delay: a correct process's crash time is
// model.NeverCrashes, and "crash time + delay" once wrapped int64 for it, so P
// suspected every correct process and consensus lost agreement. The sweep is
// `sweep -proto consensus -n 3 -seeds 1 -detectors 'perfect{suspect:9223372036854775807}'`.
func TestHugeSuspicionDelayDoesNotWrap(t *testing.T) {
	grid := Grid{Seeds: []int64{1}}
	for _, class := range []string{"perfect", "eventually-perfect", "omega-sigma"} {
		grid.Detectors = append(grid.Detectors, fd.MustParseSpec(class+"{suspect:9223372036854775807}"))
	}
	res := Sweep(context.Background(), New(3), grid, Consensus{})
	if res.Runs != len(grid.Detectors) || !res.AllPassed() {
		t.Fatalf("%d of %d runs passed; first: %v", res.Passed, res.Runs, firstViolation(res))
	}
}
