package explore

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/scenario"
)

// The novelty signature: a deliberately lossy rendering of one run that
// answers "did this run exhibit a behaviour class we have not seen yet?".
// It abstracts Result.Fingerprint along two lines:
//
//   - Config features are bucketed and the seed is dropped entirely: a new
//     seed over the same schedule shape is the same territory, not a
//     discovery, so uniform seed churn cannot inflate the corpus.
//   - Outcomes are kept as shape, not values: which processes decided,
//     which errored, and the partition of decided values (who agreed with
//     whom), plus the *classes* of the spec violations — the clause that
//     failed, stripped of the tick counts and process details that vary
//     between identically-seeded runs.
//
// Everything the signature reads is schedule-determined, so for the
// deterministic protocols the signature — and hence the whole exploration —
// is byte-reproducible per seed. Result.HistoryDepth is the one deliberate
// exception: it is a real behaviour signal (how hard the run worked its
// detectors) but, like tick counts, it is scheduling-dependent, so it joins
// the signature only when Options.DepthSignal opts in. The trace shape
// (Options.TraceSignal) sits on the reproducible side: the step scheduler's
// record counters are part of the pinned schedule, so bucketing them adds
// how-it-ran sensitivity without giving up byte-reproducibility.

// SignatureOf renders res's novelty signature: the bucketed configuration
// territory plus the behaviour part (BehaviourOf). withDepth additionally
// mixes in the log-bucketed suspect-history depth (see Options.DepthSignal);
// withTrace mixes in the bucketed trace shape (see Options.TraceSignal).
func SignatureOf(res *scenario.Result, withDepth, withTrace bool) string {
	cfg := res.Config
	var b strings.Builder
	fmt.Fprintf(&b, "%s n=%d det=%s delay=%d drop=%d crashes=%s",
		res.Protocol, cfg.N, specShape(cfg.Detector),
		durationBucket(cfg.MaxDelay),
		boolBit(cfg.DropRate > 0), crashShape(cfg.Crashes))
	fmt.Fprintf(&b, " %s", BehaviourOf(res))
	if withDepth {
		fmt.Fprintf(&b, " hist=%d", logBucket(uint64(res.HistoryDepth)))
	}
	if withTrace {
		fmt.Fprintf(&b, " trace=%s", traceShape(res))
	}
	return b.String()
}

// traceShape buckets the step scheduler's trace counters: delivered events,
// messages among them, and task step grants, each on the shared log4 scale —
// how much schedule a run burned, not what it computed. Runs without a
// pinned trace (timeout-tainted runs) render "~":
// one territory, deliberately not subdivided, because their schedule suffix
// is exactly the part the scheduler could not pin.
//
// When the run carried the probe analyzer (trace-signal explorations set
// Config.Probes on every run), the shape deepens with the probe fold's
// summary statistics on the same log4 scale: worst decision latency and
// decision depth, worst inter-event quiescence gap, worst crash-to-decision
// distance, and the per-process grant skew (max − min grants) — how the
// schedule was *distributed*, which raw counters cannot see. All of it is
// trace-tier, so the deepened signature stays byte-reproducible per seed.
func traceShape(res *scenario.Result) string {
	if res.TraceFingerprint == "" {
		return "~"
	}
	st := res.TraceSummary
	shape := fmt.Sprintf("e%d/m%d/g%d",
		logBucket(uint64(st.Events)), logBucket(uint64(st.Messages)), logBucket(uint64(st.Grants)))
	if p := res.Probes; p != nil {
		s := &p.Stream
		var skew int64
		if len(s.PerProcess) > 0 {
			lo, hi := s.PerProcess[0].Grants, s.PerProcess[0].Grants
			for _, pp := range s.PerProcess[1:] {
				lo, hi = min(lo, pp.Grants), max(hi, pp.Grants)
			}
			skew = hi - lo
		}
		shape += fmt.Sprintf("/dl%d/dd%d/q%d/cd%d/k%d",
			logBucket(uint64(s.DecisionLatency.Max)), logBucket(uint64(s.DecisionDepth.Max)),
			logBucket(uint64(s.QuiescenceGap.Max)), logBucket(uint64(s.CrashToDecision.Max)),
			logBucket(uint64(skew)))
	}
	return shape
}

// BehaviourOf is the pure behaviour part of the signature — what the run
// *did* (verdict class and outcome shape), with every configuration feature
// left out. The energy schedule treats a run whose behaviour part is new as
// a hot discovery, while a new configuration territory with already-seen
// behaviour is only lukewarm: territory is worth holding, behaviour change
// is worth chasing.
func BehaviourOf(res *scenario.Result) string {
	return fmt.Sprintf("verdict=%s out=%s", verdictClass(res.Verdict.OK, res.Verdict.Violations), outcomeShape(res.Outcomes))
}

func boolBit(v bool) int {
	if v {
		return 1
	}
	return 0
}

// logBucket is the shared coarse scale: 0 for 0, else ceil(log4) — about
// four buckets per two orders of magnitude, deliberately crude: every extra
// bucket multiplies the signature space, and an inflated space turns
// coverage guidance back into a random walk.
func logBucket(v uint64) int {
	return (bits.Len64(v) + 1) / 2
}

// durationBucket buckets a duration on the log4 scale of 250µs units.
func durationBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	return logBucket(uint64(d / (250 * time.Microsecond)))
}

// specShape renders a detector spec with its quality parameters bucketed:
// the class and which parameters are perturbed (and roughly how hard) are
// behaviour classes; every exact tick value is not.
func specShape(spec fd.DetectorSpec) string {
	var parts []string
	for _, key := range fd.SpecParamKeys() {
		p, _ := spec.Param(key)
		if p != nil && *p != 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", key, logBucket(uint64(*p))))
		}
	}
	class := spec.Class
	if class == "" {
		class = "omega-sigma"
	}
	if len(parts) == 0 {
		return class
	}
	return class + "{" + strings.Join(parts, ",") + "}"
}

// crashShape renders the crash schedule as the sorted set of crashing
// processes with bucketed times — who crashes and roughly when, with
// schedule order abstracted away.
func crashShape(crashes []scenario.Crash) string {
	if len(crashes) == 0 {
		return "-"
	}
	parts := make([]string, len(crashes))
	for i, c := range crashes {
		parts[i] = fmt.Sprintf("%d@%d", int(c.P), durationBucket(c.At))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// verdictClass is "pass", or the sorted set of violation classes — each
// violation reduced to its clause prefix (the text before the first ':'),
// which names the failed clause ("consensus termination violated",
// "scenario setup", ...) while dropping the process- and tick-level detail
// that varies between runs of the same failure mode.
func verdictClass(ok bool, violations []string) string {
	if ok {
		return "pass"
	}
	seen := map[string]bool{}
	var classes []string
	for _, v := range violations {
		class := v
		if i := strings.IndexByte(v, ':'); i >= 0 {
			class = v[:i]
		}
		if !seen[class] {
			seen[class] = true
			classes = append(classes, class)
		}
	}
	sort.Strings(classes)
	return "fail(" + strings.Join(classes, ";") + ")"
}

// outcomeShape renders per-process outcomes in process order: 'e' errored,
// '-' took no step, or v<k> where k indexes the distinct decided values in
// first-seen order — so "everyone agreed" reads v0v0v0 and a split reads
// v0v1v0, independent of the concrete values (which carry the seed).
// Crash-scheduled processes render like any other: whether such a process
// squeezes its decision in before its crash fires used to be a goroutine
// race even for a fixed seed and was masked as 'x', but under the step
// scheduler the crash is an ordinary ordered event against a deterministic
// grant schedule, so the outcome is schedule-determined and carries real
// signal (decided-then-crashed vs crashed-first are different behaviours).
func outcomeShape(outs []scenario.Outcome) string {
	var b strings.Builder
	classes := map[string]int{}
	for _, o := range outs {
		switch {
		case o.Returned:
			key := fmt.Sprint(o.Value)
			k, ok := classes[key]
			if !ok {
				k = len(classes)
				classes[key] = k
			}
			fmt.Fprintf(&b, "v%d", k)
		case o.Err != nil:
			b.WriteByte('e')
		default:
			b.WriteByte('-')
		}
	}
	return b.String()
}
