package fd

import (
	"weakestfd/internal/model"
)

// Chandra–Toueg suspect-list detectors, implemented once against the generic
// core: OracleSuspects realises the classes P, ◇P and ◇S as shapes of one
// oracle over the live failure pattern, and SuspectOmega / SuspectSigma /
// SuspectFS derive the paper's detectors from a suspect source so the same
// protocols can run against every class. The derivations are honest: each is
// sound exactly under the assumptions the literature requires (P derives a
// true Σ; ◇P and ◇S derive a majority-quorum Σ that is safe always but live
// only in majority-correct runs), so sweeping a protocol across classes shows
// which class actually solves the problem on which grid points.

// SuspectShape selects which Chandra–Toueg class OracleSuspects realises.
type SuspectShape int

const (
	// ShapePerfect is the perfect detector P: the suspect list is exactly
	// the set of visibly crashed processes at every time — strong accuracy
	// (no process suspected before it crashes) plus strong completeness.
	ShapePerfect SuspectShape = iota
	// ShapeEventuallyPerfect is ◇P: before StabilizeAfter every process
	// falsely suspects everyone but itself; afterwards the output is the
	// visibly crashed set. Eventual strong accuracy, strong completeness.
	ShapeEventuallyPerfect
	// ShapeEventuallyStrong is ◇S: the same chaotic prefix, but after
	// StabilizeAfter the output permanently defames every process except the
	// querier and the lowest-id visibly-alive process. Strong completeness
	// plus eventual weak accuracy only — correct processes other than the
	// eventual leader stay suspected forever, which is exactly what
	// separates ◇S from ◇P.
	ShapeEventuallyStrong
)

// String implements fmt.Stringer.
func (s SuspectShape) String() string {
	switch s {
	case ShapePerfect:
		return "P"
	case ShapeEventuallyPerfect:
		return "◇P"
	case ShapeEventuallyStrong:
		return "◇S"
	default:
		return "SuspectShape(?)"
	}
}

// OracleSuspects is the suspect-list oracle realising P, ◇P or ◇S over the
// live failure pattern, per Shape. SuspicionDelay postpones the moment a
// crash becomes visible (exercising the eventual completeness clause);
// StabilizeAfter bounds the chaotic false-suspicion prefix of the ◇ classes
// (it is ignored by ShapePerfect, whose accuracy clause is perpetual).
type OracleSuspects struct {
	Pattern        *model.FailurePattern
	Clock          TimeSource
	Shape          SuspectShape
	SuspicionDelay model.Time
	StabilizeAfter model.Time
}

// At implements SuspectSource. A sample is a few word operations over the
// visibly crashed set: at n ≤ 128 it allocates nothing, and it never takes a
// lock.
func (o *OracleSuspects) At(p model.ProcessID) model.ProcessSet {
	now := o.Clock.Now()
	all := model.AllProcesses(o.Pattern.N())
	if o.Shape != ShapePerfect && now < o.StabilizeAfter {
		// Chaotic prefix: suspect everyone but yourself. Legal for both ◇
		// classes (their accuracy clauses are eventual) and maximally
		// disruptive to quorum formation, which is what the prefix is for.
		all.Remove(p)
		return all
	}
	// Every visibly crashed process is suspected.
	crashed := o.Pattern.VisiblyCrashed(now, o.SuspicionDelay)
	if o.Shape != ShapeEventuallyStrong {
		return crashed
	}
	// ◇S also defames everyone except the querier and the lowest-id
	// visibly-alive process: completeness holds (all crashed are suspected),
	// and eventually exactly one correct process — the eventual leader — is
	// suspected by nobody, the weak-accuracy clause of ◇S.
	alive := all.Minus(crashed)
	if leader, ok := alive.Min(); ok {
		all.Remove(leader)
	}
	if alive.Contains(p) {
		all.Remove(p)
	}
	return all
}

// SuspectOmega derives Ω from a suspect source: the leader is the lowest-id
// unsuspected process (the classical ◇S → Ω reduction). Once the suspect
// list has converged — ◇ classes past their prefix, all crashes visible —
// every process outputs the same correct leader.
type SuspectOmega struct {
	Suspects SuspectSource
	N        int
}

// At implements OmegaSource.
func (s SuspectOmega) At(p model.ProcessID) model.ProcessID {
	if leader, ok := model.AllProcesses(s.N).Minus(s.Suspects.At(p)).Min(); ok {
		return leader
	}
	// Everyone suspected (possible only in a chaotic prefix that does not
	// even spare the querier, or when all processes crashed): the output is
	// unconstrained; trust yourself.
	return p
}

// SuspectSigma derives Σ from a suspect source. With Accurate set (class P:
// suspicion implies crash) the complement of the suspect list is itself a
// correct Σ in every environment — it contains every correct process, so any
// two outputs intersect, and it converges to exactly the correct set. Without
// it (◇P, ◇S: false suspicion possible) the complement may momentarily
// exclude correct processes, so the derivation only trusts it when it is a
// strict majority and otherwise falls back to the fixed lowest-id majority:
// all outputs are then majorities, hence pairwise intersecting — safety in
// every run — while termination additionally needs the emitted quorum to be
// eventually all-correct, which holds exactly in majority-correct runs for
// ◇P and can fail for ◇S (whose converged complement is just {leader,
// querier}). That asymmetry is the point: it is the class structure of the
// paper made executable.
type SuspectSigma struct {
	Suspects SuspectSource
	N        int
	Accurate bool
}

// At implements SigmaSource.
func (s SuspectSigma) At(p model.ProcessID) model.ProcessSet {
	trusted := model.AllProcesses(s.N).Minus(s.Suspects.At(p))
	if s.Accurate || 2*trusted.Len() > s.N {
		return trusted
	}
	return model.AllProcesses(s.N/2 + 1)
}

// SuspectFS derives a failure signal from an accurate suspect source: red as
// soon as anyone is suspected. Sound only for class P, where suspicion
// implies a crash (the accuracy clause of FS); deriving FS from a ◇ class
// would turn red during the false-suspicion prefix with no failure.
type SuspectFS struct {
	Suspects SuspectSource
}

// At implements FSSource.
func (s SuspectFS) At(p model.ProcessID) model.FSValue {
	if s.Suspects.At(p).IsEmpty() {
		return model.Green
	}
	return model.Red
}

var (
	_ SuspectSource = (*OracleSuspects)(nil)
	_ OmegaSource   = SuspectOmega{}
	_ SigmaSource   = SuspectSigma{}
	_ FSSource      = SuspectFS{}
)
