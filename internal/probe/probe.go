// Package probe is the streaming trace-analytics layer over the step
// scheduler's record stream: a set of allocation-light analyzers that fold
// the same token-serialized net.TraceRecorder stream the journal captures
// into a structured, byte-stable set of run shapes — log-bucketed
// virtual-time histograms (message delay, decision latency, inter-event
// quiescence gaps), per-process grant/delivery/send counts, decision depth,
// crash-to-decision distance, and (joined against recorded suspect
// histories) failure-detection latency.
//
// # Place on the determinism contract
//
// Probes are trace-tier: a pure fold over the record stream, which in step
// mode is a byte-reproducible pure function of (seed, config). Two
// identically-configured runs therefore produce byte-identical Probes
// (Encode), the property the determinism tests pin under -race. Capture is
// observe-only — an Analyzer rides the TraceRecorder tee beside the digest
// and the journal, so a probed run keeps the TraceFingerprint of its
// unprobed twin. Tainted runs forfeit them the way they forfeit the
// fingerprint.
//
// # Histogram bucketing
//
// Every histogram is log2-bucketed: bucket 0 holds the value 0, bucket k>0
// holds [2^(k-1), 2^k). Bucket indices are bits.Len64 of the value — cheap
// enough for the emit path — and the bucket vector is dense and trimmed, so
// the encoding carries no ceiling-dependent padding. Log bucketing is what
// makes the merge algebra work: merging histograms is element-wise addition
// (commutative and associative; idempotence is supplied by campaign's
// exact-once range disjointness), and percentile summaries (Quantile) are
// rendered from the merged buckets, never stored.
package probe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
)

// Version is the probe schema version stamped into every Probes and Agg
// block. Report loaders refuse future versions — the same policy as
// cliutil reports and journals.
const Version = 1

// maxBuckets bounds a log2 histogram over int64 values: bucket 0 plus one
// bucket per bit position.
const maxBuckets = 65

// Histogram is a mergeable log2-bucketed histogram of non-negative int64
// samples (virtual-time nanoseconds, logical ticks, or counts — the unit is
// the field's, not the histogram's). Negative samples clamp to 0: every
// quantity probed is non-negative by construction, so a negative value is a
// fold bug surfacing, not data.
type Histogram struct {
	// Count is the number of observations; Sum their total.
	Count int64 `json:"count"`
	Sum   int64 `json:"sum,omitempty"`
	// Min and Max are the extreme observations (0/0 when Count == 0).
	Min int64 `json:"min,omitempty"`
	Max int64 `json:"max,omitempty"`
	// Buckets is the dense log2 bucket vector, trimmed of trailing zeros:
	// Buckets[0] counts zeros, Buckets[k] counts values in [2^(k-1), 2^k).
	Buckets []int64 `json:"buckets,omitempty"`
}

// bucketOf maps a sample to its log2 bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe folds one sample in.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	idx := bucketOf(v)
	for len(h.Buckets) <= idx {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[idx]++
}

// Merge folds other into h element-wise. Merging is commutative and
// associative; both sides' bucket vectors may have different lengths.
func (h *Histogram) Merge(other Histogram) {
	if other.Count == 0 {
		return
	}
	if h.Count == 0 || other.Min < h.Min {
		h.Min = other.Min
	}
	if other.Max > h.Max {
		h.Max = other.Max
	}
	h.Count += other.Count
	h.Sum += other.Sum
	for len(h.Buckets) < len(other.Buckets) {
		h.Buckets = append(h.Buckets, 0)
	}
	for i, c := range other.Buckets {
		h.Buckets[i] += c
	}
}

// Quantile returns an upper bound for the p-quantile (0 <= p <= 1): the
// largest value of the bucket in which the cumulative count crosses
// p*Count, clamped to Max. A render-time summary — percentiles are computed
// from merged buckets, never stored, so merging stays exact.
func (h *Histogram) Quantile(p float64) int64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(p * float64(h.Count))
	if target < 1 {
		target = 1
	}
	if target > h.Count {
		target = h.Count
	}
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			hi := int64(1)<<uint(i) - 1
			if hi > h.Max {
				return h.Max
			}
			return hi
		}
	}
	return h.Max
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// ProcessProbes is one process's share of the record stream: how many step
// grants its tasks received, how many messages it was delivered, how many
// of the delivered messages it had sent.
type ProcessProbes struct {
	Proc       uint64 `json:"proc"`
	Grants     int64  `json:"grants,omitempty"`
	Deliveries int64  `json:"deliveries,omitempty"`
	Sends      int64  `json:"sends,omitempty"`
}

// StreamProbes is the pure fold of one run's record stream: counters,
// shape histograms and the per-process vector. Every field is a function of
// the records alone, so it is recomputable offline from a complete journal
// (replay -stats) and must match the live capture exactly.
type StreamProbes struct {
	// Records counts every record folded; the per-kind counters mirror
	// TraceStats and must agree with the journal meta.
	Records  int64 `json:"records"`
	Events   int64 `json:"events"`
	Messages int64 `json:"messages,omitempty"`
	Timers   int64 `json:"timers,omitempty"`
	Crashes  int64 `json:"crashes,omitempty"`
	Grants   int64 `json:"grants,omitempty"`
	// Exits counts clean task exits; Decisions the group-task subset — the
	// protocol runners' decision points.
	Exits     int64 `json:"exits,omitempty"`
	Decisions int64 `json:"decisions,omitempty"`
	// MessageDelay buckets each delivered message's drawn delay
	// (delivery time minus enqueue time, virtual ns).
	MessageDelay Histogram `json:"message_delay"`
	// QuiescenceGap buckets the virtual-time gaps between consecutive
	// delivered events — the run's idle structure.
	QuiescenceGap Histogram `json:"quiescence_gap"`
	// DecisionLatency buckets, per group-task exit, the virtual time at
	// which the deciding process exited (the At of the last event delivered
	// before its exit record).
	DecisionLatency Histogram `json:"decision_latency"`
	// DecisionDepth buckets, per group-task exit, how many events had been
	// delivered when the process decided.
	DecisionDepth Histogram `json:"decision_depth"`
	// CrashToDecision buckets, per group-task exit after the first crash
	// event, the virtual-time distance from the latest crash to the
	// decision. Empty for crash-free runs.
	CrashToDecision Histogram `json:"crash_to_decision"`
	// PerProcess is the per-process grant/delivery/send vector, ordered by
	// process id; processes with no activity are elided.
	PerProcess []ProcessProbes `json:"per_process,omitempty"`
	// CrashedProcs lists the processes whose crash events the stream
	// delivered, in delivery order — the deterministic crash set the
	// detection join keys on (the live failure pattern can gain crashes
	// after the trace boundary; those are not part of this run's trace).
	CrashedProcs []uint64 `json:"crashed_procs,omitempty"`
}

// DetectionProbes is the failure-detection latency join: recorded crashes
// against recorded suspect histories. Times are logical ticks (the clock
// suspect samples and failure patterns are stamped in), not virtual ns.
type DetectionProbes struct {
	// Crashes is how many crashes the run's failure pattern records;
	// Detected how many reached a stable suspicion in the retained history;
	// Missed the rest (no suspect view, suspicion never stabilized, or the
	// history ring dropped the evidence).
	Crashes  int64 `json:"crashes"`
	Detected int64 `json:"detected,omitempty"`
	Missed   int64 `json:"missed,omitempty"`
	// Latency buckets, per detected crash, the distance in logical ticks
	// from the crash to its first stable suspicion (the earliest sample
	// containing the crashed process after which no later retained sample
	// from another process omits it), clamped at 0 for suspicions that
	// predate the crash.
	Latency Histogram `json:"latency"`
}

// Probes is one run's complete probe block: the stream fold plus the
// optional detection join. Byte-stable per (seed, config) via Encode.
type Probes struct {
	SchemaVersion int          `json:"schema_version"`
	Stream        StreamProbes `json:"stream"`
	// Detection is nil when the run recorded no suspect history to join
	// against (HistoryLimit <= 0).
	Detection *DetectionProbes `json:"detection,omitempty"`
}

// Encode renders the probes canonically: compact JSON over fixed structs,
// byte-identical for equal values. The determinism tests compare these
// bytes; reports embed the same structs.
func (p *Probes) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(p); err != nil {
		return nil, fmt.Errorf("probe: encode: %w", err)
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

// Equal compares two probe blocks by canonical encoding.
func (p *Probes) Equal(q *Probes) bool {
	if p == nil || q == nil {
		return p == q
	}
	a, errA := p.Encode()
	b, errB := q.Encode()
	return errA == nil && errB == nil && bytes.Equal(a, b)
}

// CheckVersion refuses probe blocks stamped with a future schema version,
// mirroring the report and journal gates.
func (p *Probes) CheckVersion(source string) error {
	if p != nil && p.SchemaVersion > Version {
		return fmt.Errorf("%s: probe schema_version %d is newer than this build understands (%d); rebuild or use a newer binary", source, p.SchemaVersion, Version)
	}
	return nil
}

// Agg is the mergeable cross-run probe aggregate sweep and campaign reports
// carry per grid slice and per detector class: run-level summaries folded
// into histograms whose merge is plain element-wise addition — commutative
// and associative, with idempotence supplied by campaign's exact-once range
// disjointness, so it slots into the same merge algebra as the run counts.
type Agg struct {
	SchemaVersion int `json:"schema_version"`
	// Runs is how many runs were folded in.
	Runs int64 `json:"runs"`
	// Messages buckets each run's delivered-message count — the message
	// cost axis of the detector comparison.
	Messages Histogram `json:"messages"`
	// DecisionLatency merges the runs' per-process decision-latency
	// histograms (virtual ns).
	DecisionLatency Histogram `json:"decision_latency"`
	// DetectionLatency merges the runs' crash-detection latencies (logical
	// ticks); CrashesSeen/Detected/Missed sum the detection counters.
	DetectionLatency Histogram `json:"detection_latency"`
	CrashesSeen      int64     `json:"crashes_seen,omitempty"`
	Detected         int64     `json:"detected,omitempty"`
	Missed           int64     `json:"missed,omitempty"`
}

// NewAgg returns an empty aggregate at the current schema version.
func NewAgg() *Agg { return &Agg{SchemaVersion: Version} }

// Add folds one run's probes in.
func (a *Agg) Add(p *Probes) {
	if p == nil {
		return
	}
	a.Runs++
	a.Messages.Observe(p.Stream.Messages)
	a.DecisionLatency.Merge(p.Stream.DecisionLatency)
	if d := p.Detection; d != nil {
		a.DetectionLatency.Merge(d.Latency)
		a.CrashesSeen += d.Crashes
		a.Detected += d.Detected
		a.Missed += d.Missed
	}
}

// Merge folds b into a. Both sides must carry the same schema version; the
// caller guarantees the runs behind them are disjoint (campaign's exact-once
// range check), which is what makes the sum idempotent at the algebra level.
func (a *Agg) Merge(b *Agg) error {
	if b == nil {
		return nil
	}
	if a.SchemaVersion != b.SchemaVersion {
		return fmt.Errorf("probe: cannot merge aggregates of schema versions %d and %d", a.SchemaVersion, b.SchemaVersion)
	}
	a.Runs += b.Runs
	a.Messages.Merge(b.Messages)
	a.DecisionLatency.Merge(b.DecisionLatency)
	a.DetectionLatency.Merge(b.DetectionLatency)
	a.CrashesSeen += b.CrashesSeen
	a.Detected += b.Detected
	a.Missed += b.Missed
	return nil
}

// CheckVersion refuses aggregates stamped with a future schema version.
func (a *Agg) CheckVersion(source string) error {
	if a != nil && a.SchemaVersion > Version {
		return fmt.Errorf("%s: probe schema_version %d is newer than this build understands (%d); rebuild or use a newer binary", source, a.SchemaVersion, Version)
	}
	return nil
}

// Summary renders one histogram as a compact percentile line for canonical
// reports: count, mean and p50/p90/p99 upper bounds.
func Summary(h *Histogram) string {
	if h.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50<=%d p90<=%d p99<=%d max=%d",
		h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max)
}
