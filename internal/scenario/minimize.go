// Failure minimisation: delta debugging over the schedule space.
//
// A sweep reports a failing grid point as a whole Config — seed, delay
// range, crash schedule, detector delays — most of which is usually
// irrelevant to the violation. Minimize greedily shrinks that config while
// the verdict still fails, which the virtual-time scheduler makes cheap:
// every candidate is a full cluster run, but a run costs no wall-clock
// waiting (only genuinely-failing liveness candidates pay their wall-clock
// timeout backstop).
package scenario

import (
	"context"
	"fmt"
	"time"

	"weakestfd/internal/journal"
	"weakestfd/internal/model"
)

// MinimizeResult is the outcome of a minimisation: the smallest
// configuration found that still reproduces (a failing verdict for Minimize,
// the reference schedule for MinimizeTrace), the reproducing run of that
// configuration, and its byte-stable fingerprints for deduplicating
// reproducers across sweeps.
type MinimizeResult struct {
	// Config is the minimal reproducing configuration.
	Config Config
	// Result is the reproducing run of Config (Result.Config == Config).
	Result Result
	// Fingerprint is Result.Fingerprint(): byte-identical across repeated
	// minimisations of a schedule-determined failure.
	Fingerprint string
	// TraceFingerprint is Result.TraceFingerprint — under MinimizeTrace it
	// equals the reference run's by construction; under Minimize it is
	// whatever schedule the minimal failing run took (empty for tainted
	// timeout runs).
	TraceFingerprint string
	// Candidates is how many candidate runs were executed, including the
	// initial reproduction.
	Candidates int
}

// Minimize shrinks a failing configuration to a minimal reproducer: it
// greedily drops crash-schedule entries, rounds the surviving crash times
// down (to zero, then to coarser units, then by halving), collapses the
// delay range, zeroes the drop rate, tries removing the detector
// perturbation entirely (the zero-quality spec of the same class) and only
// then bisects the surviving detector quality parameters — each
// step kept only while the verdict still fails — until a fixpoint. This is
// delta debugging over the schedule space: every candidate is one cheap
// virtual-time run of proto.
//
// Minimize returns an error if cfg does not fail to begin with, or if ctx is
// cancelled mid-search (the best reproducer found so far is still returned).
// The search is deterministic for a deterministic protocol: same input, same
// minimal config, same fingerprint.
func Minimize(ctx context.Context, cfg Config, proto Protocol) (MinimizeResult, error) {
	return minimize(ctx, cfg, proto, false)
}

// MinimizeTrace shrinks a configuration to a minimal one reproducing the
// same schedule, not merely the same verdict: the reference run's
// TraceFingerprint is recorded and a candidate is accepted only if its own
// trace digest is byte-identical. The passes are the same as Minimize's, so
// what survives is exactly the configuration content the schedule depends on
// — a crash scheduled after the trace ends drops out, a detector parameter
// the schedule never consults bisects away, while anything that perturbs a
// single delivery or grant is pinned. It requires an untainted reference
// run.
//
// When cfg journals the full record stream (Config.Journal == JournalAll),
// acceptance widens from fingerprint equality to journal-prefix containment:
// a candidate whose whole record stream is an exact prefix of the reference
// stream is accepted too. The digest alone cannot express "same schedule,
// stopped earlier" — only the stored records can — so this is how a timeout
// parameter or a crash scheduled just before the reference trace's end
// shrinks away without perturbing a single retained record.
func MinimizeTrace(ctx context.Context, cfg Config, proto Protocol) (MinimizeResult, error) {
	return minimize(ctx, cfg, proto, true)
}

func minimize(ctx context.Context, cfg Config, proto Protocol, sameTrace bool) (MinimizeResult, error) {
	m := &minimizer{ctx: ctx, proto: proto, memo: map[string]*memoEntry{}}
	cur := FromConfig(cfg).Config() // private copy of the crash schedule

	// Reference run. In trace mode it defines the acceptance target, so it
	// runs before the predicate can exist; either way it seeds the memo.
	ref := FromConfig(cur).Run(ctx, proto)
	m.candidates++
	if sameTrace {
		if ref.TraceFingerprint == "" {
			m.memo[minimizeKey(cur)] = &memoEntry{res: ref}
			return MinimizeResult{Config: cur, Result: ref, Candidates: m.candidates},
				fmt.Errorf("minimize: reference run produced no trace fingerprint (a timeout-tainted run, or no runner launched)")
		}
		want := ref.TraceFingerprint
		if refJ := ref.Journal; refJ != nil && refJ.Complete() {
			// Full-stream journaling is on: accept byte-identical schedules
			// and exact schedule prefixes (see the MinimizeTrace doc).
			m.accept = func(r *Result) bool {
				return r.TraceFingerprint == want ||
					(r.Journal != nil && journal.IsPrefix(refJ, r.Journal))
			}
		} else {
			m.accept = func(r *Result) bool { return r.TraceFingerprint == want }
		}
	} else {
		m.accept = func(r *Result) bool { return !r.Verdict.OK }
	}
	accepted := m.accept(&ref) && ctx.Err() == nil
	m.memo[minimizeKey(cur)] = &memoEntry{res: ref, ok: accepted}
	if !accepted {
		if err := ctx.Err(); err != nil {
			return MinimizeResult{Candidates: m.candidates}, fmt.Errorf("minimize: cancelled before reproducing: %w", err)
		}
		return MinimizeResult{Config: cur, Result: ref, Candidates: m.candidates},
			fmt.Errorf("minimize: configuration does not fail (verdict: %v)", ref.Verdict)
	}
	best := ref

	for changed := true; changed; {
		changed = false
		if ctx.Err() != nil {
			break
		}

		// Drop crash-schedule entries one at a time (each drop re-tries the
		// shrunk schedule, so a run of removable entries goes in one pass).
		for i := 0; i < len(cur.Crashes); {
			cand := cur
			cand.Crashes = append(append([]Crash(nil), cur.Crashes[:i]...), cur.Crashes[i+1:]...)
			if r, ok := m.fails(cand); ok {
				cur, best, changed = cand, r, true
			} else {
				i++
			}
		}

		// Round the surviving crash times down: to zero if the failure
		// survives it, else to coarser units, else by halving.
		for i := range cur.Crashes {
			at := cur.Crashes[i].At
			for _, v := range roundedDown(at) {
				cand := cur
				cand.Crashes = append([]Crash(nil), cur.Crashes...)
				cand.Crashes[i].At = v
				if r, ok := m.fails(cand); ok {
					cur, best, changed = cand, r, true
					break
				}
			}
		}

		// Collapse the delay range: to the degenerate [0, 0] point if
		// possible, else to the deterministic [Min, Min] point.
		if cur.MinDelay != 0 || cur.MaxDelay != 0 {
			cand := cur
			cand.MinDelay, cand.MaxDelay = 0, 0
			if r, ok := m.fails(cand); ok {
				cur, best, changed = cand, r, true
			} else if cur.MaxDelay > cur.MinDelay {
				cand = cur
				cand.MaxDelay = cur.MinDelay
				if r, ok := m.fails(cand); ok {
					cur, best, changed = cand, r, true
				}
			}
		}

		// Reliable links reproduce more failures than one would expect.
		if cur.DropRate > 0 {
			cand := cur
			cand.DropRate = 0
			if r, ok := m.fails(cand); ok {
				cur, best, changed = cand, r, true
			}
		}

		// Remove the detector perturbation entirely first: one run with the
		// zero-quality spec (same class, every delay parameter reset) often
		// replaces a whole sequence of per-parameter bisections.
		if cur.Detector != cur.Detector.Zeroed() {
			cand := cur
			cand.Detector = cur.Detector.Zeroed()
			if r, ok := m.fails(cand); ok {
				cur, best, changed = cand, r, true
			}
		}

		// Bisect the surviving detector quality parameters toward zero
		// (logical ticks, so the search space is small and the probes are
		// cheap). The parameter list comes from the spec itself, so new
		// quality dimensions join the shrink automatically.
		for dim := range cur.Detector.TimeParams() {
			orig := *cur.Detector.TimeParams()[dim]
			if orig == 0 {
				continue
			}
			v, r, ok := m.bisectTime(orig, func(t model.Time) Config {
				cand := cur
				*cand.Detector.TimeParams()[dim] = t
				return cand
			})
			if ok && v < orig {
				cand := cur
				*cand.Detector.TimeParams()[dim] = v
				cur, best, changed = cand, r, true
			}
		}
	}

	out := MinimizeResult{
		Config:           cur,
		Result:           best,
		Fingerprint:      best.Fingerprint(),
		TraceFingerprint: best.TraceFingerprint,
		Candidates:       m.candidates,
	}
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("minimize: cancelled mid-search: %w", err)
	}
	return out, nil
}

// minimizer carries the shared state of one minimisation: the acceptance
// predicate (failing verdict, or trace-fingerprint equality), the run memo
// (bisection and fixpoint passes revisit configurations) and the candidate
// counter.
type minimizer struct {
	ctx        context.Context
	proto      Protocol
	accept     func(*Result) bool
	memo       map[string]*memoEntry
	candidates int
}

// memoEntry is one memoised candidate run. The full Result is kept even for
// rejected candidates: trace-mode passes compare fingerprints of runs the
// verdict mode would have discarded, and diagnostics want the near-misses.
type memoEntry struct {
	res Result
	ok  bool
}

// fails runs the candidate (or recalls it from the memo) and reports whether
// the acceptance predicate held. Acceptance observed after the minimizer's
// context was cancelled is discounted — it is the cancellation echoing
// through the run's timeout backstop, the same distinction Sweep draws for
// its Cancelled count.
func (m *minimizer) fails(cfg Config) (Result, bool) {
	key := minimizeKey(cfg)
	if e, ok := m.memo[key]; ok {
		return e.res, e.ok
	}
	if m.ctx.Err() != nil {
		return Result{}, false
	}
	res := FromConfig(cfg).Run(m.ctx, m.proto)
	m.candidates++
	ok := m.accept(&res) && m.ctx.Err() == nil
	m.memo[key] = &memoEntry{res: res, ok: ok}
	return res, ok
}

// bisectTime finds the smallest logical-tick value in [0, orig] whose
// candidate still fails, assuming apply(orig) fails (it is the current
// config) and failure is monotone in the value. Returns ok=false if even
// apply(orig) stopped failing under the memo's view (cancellation).
func (m *minimizer) bisectTime(orig model.Time, apply func(model.Time) Config) (model.Time, Result, bool) {
	if r, ok := m.fails(apply(0)); ok {
		return 0, r, true
	}
	lo, hi := model.Time(0), orig // lo passes, hi fails
	var hiRes Result
	hiOK := false
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if r, ok := m.fails(apply(mid)); ok {
			hi, hiRes, hiOK = mid, r, true
		} else {
			lo = mid
		}
	}
	if !hiOK {
		hiRes, hiOK = m.fails(apply(hi))
	}
	return hi, hiRes, hiOK
}

// roundedDown lists the shrink candidates for a crash time, most aggressive
// first: zero, truncation to coarser units, halving. Values that do not
// strictly shrink are omitted.
func roundedDown(at time.Duration) []time.Duration {
	var out []time.Duration
	seen := map[time.Duration]bool{at: true}
	for _, v := range []time.Duration{
		0,
		at.Truncate(time.Millisecond),
		at.Truncate(100 * time.Microsecond),
		at / 2,
	} {
		if v < at && !seen[v] {
			out = append(out, v)
			seen[v] = true
		}
	}
	return out
}

// minimizeKey renders the dimensions Minimize mutates canonically, for the
// verdict memo. The detector is identified by its canonical spec fingerprint
// (DetectorSpec.String), so the zero-spec pass and the per-parameter
// bisections share memo entries whenever they land on the same spec. Crash
// order is preserved: schedule order breaks (at, seq) ties in the event
// queue, so it is part of the configuration's identity.
func minimizeKey(cfg Config) string {
	return fmt.Sprintf("%v|%v|%v|%g|%s|%v",
		cfg.Crashes, cfg.MinDelay, cfg.MaxDelay, cfg.DropRate, cfg.Detector, cfg.Timeout)
}
