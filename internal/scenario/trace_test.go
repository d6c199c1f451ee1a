package scenario

import (
	"context"
	"strings"
	"testing"
	"time"

	"weakestfd/internal/model"
)

// traceFamily lists one representative point per protocol family. Unlike
// determinismFamily (which pins the outcome fingerprint and therefore needs
// schedule-independent winners), the trace contract pins the entire grant and
// delivery schedule, so any seeded step-mode configuration qualifies — the
// assertion is byte-equality of Result.TraceFingerprint across repeated runs,
// the tentpole guarantee of the step scheduler.
func traceFamily() []struct {
	name  string
	s     *Scenario
	proto Protocol
} {
	return []struct {
		name  string
		s     *Scenario
		proto Protocol
	}{
		{"consensus", New(5, WithSeed(101), WithDelays(time.Millisecond, 10*time.Millisecond)), Consensus{}},
		{"qc", New(4, WithSeed(102)), QC{}},
		{"nbac", New(4, WithSeed(103)), NBAC{}},
		{"twopc", New(4, WithSeed(104)), TwoPC{}},
		{"nbacqc", New(4, WithSeed(105)), NBACQC{}},
		{"multiconsensus", New(4, WithSeed(106)), MultiConsensus{Rounds: 2}},
		{"registers", New(3, WithSeed(107)), Registers{Values: []int{7, 8, 9}}},
		{"extract/sigma", New(3, WithSeed(28)), SigmaExtraction{Rounds: 2}},
		{"extract/sigma-majority", New(3, WithSeed(29)), SigmaExtraction{Majority: true, Rounds: 2}},
	}
}

// TestTraceDeterministic is the trace-determinism guarantee: repeated runs of
// an identical seeded configuration produce a non-empty, byte-identical
// TraceFingerprint (and identical shape counters) for every protocol family.
// CI exercises this under -race, where goroutine scheduling noise is maximal —
// exactly what the quiescence handshake must make invisible.
func TestTraceDeterministic(t *testing.T) {
	ctx := context.Background()
	rounds := 3
	if raceEnabled {
		rounds = 2
	}
	for _, tc := range traceFamily() {
		want := tc.s.Run(ctx, tc.proto)
		if !want.Verdict.OK {
			t.Fatalf("%s: verdict %v", tc.name, want.Verdict)
		}
		if want.TraceFingerprint == "" {
			t.Fatalf("%s: step-mode run produced no trace fingerprint", tc.name)
		}
		if want.TraceSummary.Events == 0 || want.TraceSummary.Grants == 0 {
			t.Fatalf("%s: implausible trace counters %+v", tc.name, want.TraceSummary)
		}
		for round := 1; round < rounds; round++ {
			got := tc.s.Run(ctx, tc.proto)
			if got.TraceFingerprint != want.TraceFingerprint {
				t.Fatalf("%s: trace fingerprint diverged on round %d\nfirst: %s %+v\nround: %s %+v",
					tc.name, round, want.TraceFingerprint, want.TraceSummary, got.TraceFingerprint, got.TraceSummary)
			}
			if got.TraceSummary != want.TraceSummary {
				t.Fatalf("%s: trace counters diverged on round %d: %+v vs %+v",
					tc.name, round, want.TraceSummary, got.TraceSummary)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("%s: outcome fingerprint diverged on round %d", tc.name, round)
			}
		}
	}
}

// TestTraceDeterministicCrashAtDecisionMoment injects a crash at the exact
// virtual instant a crash-free run of the same seed finishes deciding — the
// tightest race between a crash event and the decision deliveries it competes
// with. The crash is an ordinary (time, seq)-ordered event against a
// deterministic grant schedule, so the full trace must replay
// byte-identically, whichever way the tie resolves.
func TestTraceDeterministicCrashAtDecisionMoment(t *testing.T) {
	ctx := context.Background()
	base := New(5, WithSeed(108), WithDelays(time.Millisecond, 5*time.Millisecond))
	ref := base.Run(ctx, Consensus{})
	if !ref.Verdict.OK {
		t.Fatalf("crash-free reference failed: %v", ref.Verdict)
	}
	decision := ref.VirtualEnd
	for _, tc := range []struct {
		name string
		p    model.ProcessID
		at   time.Duration
	}{
		{"leader-at-decision", 0, decision},
		{"follower-at-decision", 4, decision},
		{"leader-mid-run", 0, decision / 2},
	} {
		s := New(5, WithSeed(108), WithDelays(time.Millisecond, 5*time.Millisecond), WithCrash(tc.p, tc.at))
		want := s.Run(ctx, Consensus{})
		if want.TraceFingerprint == "" {
			t.Fatalf("%s: no trace fingerprint", tc.name)
		}
		got := s.Run(ctx, Consensus{})
		if got.TraceFingerprint != want.TraceFingerprint {
			t.Fatalf("%s: trace diverged across runs\nfirst: %s %+v\nagain: %s %+v",
				tc.name, want.TraceFingerprint, want.TraceSummary, got.TraceFingerprint, got.TraceSummary)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%s: outcome fingerprint diverged", tc.name)
		}
	}
}

// TestMinimizeTrace: trace-mode minimisation holds the reference schedule
// fixed. A crash scheduled far beyond the trace's end never pops before the
// group exits, so its time shrinks (the minimiser rounds it down as long as it
// stays schedule-invisible) while everything the schedule consults is pinned;
// the minimal configuration must reproduce the reference trace byte-for-byte.
func TestMinimizeTrace(t *testing.T) {
	ctx := context.Background()
	base := New(4, WithSeed(110))
	ref := base.Run(ctx, Consensus{})
	if !ref.Verdict.OK || ref.TraceFingerprint == "" {
		t.Fatalf("reference: verdict %v, trace %q", ref.Verdict, ref.TraceFingerprint)
	}
	lateAt := 4 * ref.VirtualEnd
	cfg := New(4, WithSeed(110), WithCrash(3, lateAt)).Config()
	mr, err := MinimizeTrace(ctx, cfg, Consensus{})
	if err != nil {
		t.Fatalf("MinimizeTrace: %v", err)
	}
	if mr.TraceFingerprint == "" {
		t.Fatal("minimal reproducer lost the trace fingerprint")
	}
	if mr.Candidates < 2 {
		t.Fatalf("minimisation ran only %d candidate(s)", mr.Candidates)
	}
	// The reference configuration (with the late crash) must itself share the
	// minimal run's trace: trace equality is the acceptance predicate.
	if got := FromConfig(cfg).Run(ctx, Consensus{}); got.TraceFingerprint != mr.TraceFingerprint {
		t.Fatalf("minimal trace %s does not match reference config's %s", mr.TraceFingerprint, got.TraceFingerprint)
	}
	// And re-running the minimal config reproduces it.
	if got := FromConfig(mr.Config).Run(ctx, Consensus{}); got.TraceFingerprint != mr.TraceFingerprint {
		t.Fatalf("minimal config does not reproduce its own trace: %s vs %s", got.TraceFingerprint, mr.TraceFingerprint)
	}
	// The schedule-invisible crash time shrank.
	for _, c := range mr.Config.Crashes {
		if c.At >= lateAt {
			t.Errorf("schedule-invisible crash time did not shrink: %v (was %v)", c.At, lateAt)
		}
	}
}

// TestMinimizeTraceRequiresTrace: a run tainted by its wall-clock backstop
// has no trace to hold fixed, so trace-mode minimisation must refuse it
// rather than accept everything.
func TestMinimizeTraceRequiresTrace(t *testing.T) {
	cfg := New(3, WithSeed(111), WithDropRate(1), WithSafetyOnly(), WithTimeout(200*time.Millisecond)).Config()
	if _, err := MinimizeTrace(context.Background(), cfg, Consensus{}); err == nil || !strings.Contains(err.Error(), "no trace fingerprint") {
		t.Fatalf("MinimizeTrace accepted a tainted reference run: %v", err)
	}
}
