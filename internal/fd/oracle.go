package fd

import (
	"sync"
	"sync/atomic"

	"weakestfd/internal/model"
)

// Oracle-backed detectors. Each reads the live failure pattern maintained by
// the runtime (crashes are recorded there the moment they are injected) and
// is therefore an exact realisation of the corresponding formal definition.
// An optional suspicion delay postpones the moment a crash becomes visible to
// the detector, exercising the "eventually ..." clauses of the specifications
// without ever violating the perpetual ones.

// OracleSigma is the quorum detector Σ: it outputs the set of processes whose
// crash (if any) is not yet visible. Every output contains every correct
// process, so any two outputs intersect (as long as at least one process is
// correct, which every environment in this module guarantees), and once all
// crashes are visible the output is exactly the set of correct processes.
type OracleSigma struct {
	Pattern *model.FailurePattern
	Clock   TimeSource
	// SuspicionDelay is how many logical ticks after a crash the crashed
	// process keeps appearing in quorums. Zero means crashes are visible
	// immediately.
	SuspicionDelay model.Time

	cache atomic.Pointer[sigmaSample]
}

// sigmaSample is one memoized OracleSigma output; it is never modified once
// published.
type sigmaSample struct {
	set        model.ProcessSet
	validUntil model.Time // holds for query times < validUntil
	version    uint64     // pattern version it was computed at
}

// At implements SigmaSource. The visible-alive set only changes when a crash
// is recorded or a suspicion delay expires, so consecutive samples reuse one
// memoized set instead of rebuilding it on every query — the quorum-guard
// poll loops of the protocols sample Σ on every tick. A hit is one atomic
// load: no lock, no allocation.
func (o *OracleSigma) At(model.ProcessID) model.ProcessSet {
	now := o.Clock.Now()
	version := o.Pattern.Version()
	if c := o.cache.Load(); c != nil && c.version == version && now < c.validUntil {
		return c.set
	}
	c := &sigmaSample{version: version}
	c.set, c.validUntil = o.Pattern.VisiblyAlive(now, o.SuspicionDelay)
	o.cache.Store(c)
	return c.set
}

// OracleOmega is the leader detector Ω: it outputs the lowest-id process whose
// crash is not yet visible. Eventually that is the lowest-id correct process
// at every process.
type OracleOmega struct {
	Pattern        *model.FailurePattern
	Clock          TimeSource
	SuspicionDelay model.Time
}

// At implements OmegaSource.
func (o *OracleOmega) At(model.ProcessID) model.ProcessID {
	if leader, ok := o.Pattern.MinVisiblyAlive(o.Clock.Now(), o.SuspicionDelay); ok {
		return leader
	}
	// All processes crashed: the output is unconstrained by the spec
	// (there are no correct processes); return process 0.
	return 0
}

// OracleFS is the failure-signal detector: green until a crash has occurred
// (and has become visible after DetectionDelay ticks), red permanently
// afterwards.
type OracleFS struct {
	Pattern *model.FailurePattern
	Clock   TimeSource
	// DetectionDelay is how many logical ticks after the first crash the
	// signal turns red. Zero means immediately.
	DetectionDelay model.Time
}

// At implements FSSource.
func (o *OracleFS) At(model.ProcessID) model.FSValue {
	first, ok := o.Pattern.FirstCrashTime()
	if ok && model.Later(first, o.DetectionDelay) <= o.Clock.Now() {
		return model.Red
	}
	return model.Green
}

// PsiPolicy selects which regime OraclePsi switches to when it leaves ⊥.
type PsiPolicy int

const (
	// PreferOmegaSigma always switches to the (Ω, Σ) regime.
	PreferOmegaSigma PsiPolicy = iota
	// PreferFSOnFailure switches to the FS regime if a failure has occurred
	// by the switch time, and to (Ω, Σ) otherwise.
	PreferFSOnFailure
)

// OraclePsi is the detector Ψ of Section 6.1. Every process outputs ⊥ until
// the logical clock passes SwitchAfter; the first query after that point
// fixes the regime for all processes — FS if the policy is PreferFSOnFailure
// and a failure has already occurred, (Ω, Σ) otherwise — as the specification
// requires (the FS regime is legitimate only after a failure, and all
// processes must make the same choice even though they may switch at
// different times).
type OraclePsi struct {
	Pattern     *model.FailurePattern
	Clock       TimeSource
	SwitchAfter model.Time
	Policy      PsiPolicy

	// Underlying regimes. If nil, oracle detectors with no suspicion delay
	// over the same pattern and clock are used.
	Omega OmegaSource
	Sigma SigmaSource
	FS    FSSource

	mu      sync.Mutex
	decided bool
	mode    model.PsiPhase

	fallbackOnce sync.Once
	fbOmega      OmegaSource
	fbSigma      SigmaSource
	fbFS         FSSource
}

// fallbacks interns the default regime detectors once, so a Ψ sampled in a
// hot loop does not allocate a fresh oracle per query (and the Σ fallback
// keeps its memoized sample across queries).
func (o *OraclePsi) fallbacks() {
	o.fallbackOnce.Do(func() {
		o.fbOmega = o.Omega
		o.fbSigma = o.Sigma
		o.fbFS = o.FS
		if o.fbOmega == nil {
			o.fbOmega = &OracleOmega{Pattern: o.Pattern, Clock: o.Clock}
		}
		if o.fbSigma == nil {
			o.fbSigma = &OracleSigma{Pattern: o.Pattern, Clock: o.Clock}
		}
		if o.fbFS == nil {
			o.fbFS = &OracleFS{Pattern: o.Pattern, Clock: o.Clock}
		}
	})
}

func (o *OraclePsi) omega() OmegaSource {
	o.fallbacks()
	return o.fbOmega
}

func (o *OraclePsi) sigma() SigmaSource {
	o.fallbacks()
	return o.fbSigma
}

func (o *OraclePsi) fs() FSSource {
	o.fallbacks()
	return o.fbFS
}

// At implements PsiSource.
func (o *OraclePsi) At(p model.ProcessID) model.PsiValue {
	now := o.Clock.Now()
	if now < o.SwitchAfter {
		return model.PsiValue{Phase: model.PsiBottom}
	}
	o.mu.Lock()
	if !o.decided {
		o.decided = true
		if o.Policy == PreferFSOnFailure && o.Pattern.FailureOccurredBy(now) {
			o.mode = model.PsiFS
		} else {
			o.mode = model.PsiOmegaSigma
		}
	}
	mode := o.mode
	o.mu.Unlock()

	switch mode {
	case model.PsiFS:
		return model.PsiValue{Phase: model.PsiFS, FS: o.fs().At(p)}
	default:
		return model.PsiValue{
			Phase: model.PsiOmegaSigma,
			OS: model.OmegaSigmaValue{
				Leader: o.omega().At(p),
				Quorum: o.sigma().At(p),
			},
		}
	}
}

// Mode returns the regime Ψ has committed to, or PsiBottom if it has not left
// ⊥ yet at any process.
func (o *OraclePsi) Mode() model.PsiPhase {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.decided {
		return model.PsiBottom
	}
	return o.mode
}

var (
	_ SigmaSource = (*OracleSigma)(nil)
	_ OmegaSource = (*OracleOmega)(nil)
	_ FSSource    = (*OracleFS)(nil)
	_ PsiSource   = (*OraclePsi)(nil)
)
