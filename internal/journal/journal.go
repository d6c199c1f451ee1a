// Package journal stores the step scheduler's trace record stream as a
// structured, versioned on-disk artifact, and replays it.
//
// The trace tier (internal/net's step scheduler) already makes the full
// record stream — deliveries, task grants, clean exits, logical clocks — a
// byte-reproducible pure function of (seed, config), but by itself keeps only
// its SHA-256 (the TraceFingerprint). A journal keeps the records: every
// field the trace hash sees, nothing it does not, captured through the
// net.TraceRecorder hook that sits beside the digest. On top of the stored
// stream sit three operations:
//
//   - Verify recomputes the SHA-256 over the journal's records through the
//     same net.TraceRecord.AppendHash encoding the live digest uses and
//     cross-checks it against the recorded fingerprint — proof that the
//     journal and the hash saw the identical stream.
//   - Checker re-checks a live run against the journal record-by-record
//     (scenario.Replay wires it in as the run's recorder), stopping at the
//     first mismatch with a precise Divergence.
//   - IsPrefix compares two journals for prefix containment, the acceptance
//     relation trace-minimisation uses.
//
// # Place on the determinism contract
//
// Journal bytes are trace-tier: they are a pure function of (seed, config) —
// two identically-configured runs journal byte-identical files — and
// capturing them is observe-only, so a journaled run keeps the
// TraceFingerprint of its unjournaled twin. Tainted runs (a wall-clock escape cut the
// schedule at a point virtual time cannot pin) journal their taint reason in
// place of a fingerprint, and replay refuses them with that reason.
//
// # On-disk format
//
// A journal is JSON-lines: line 1 is the Meta object (schema_version first),
// each subsequent line one Record. Loaders reject future schema versions, the
// same policy as cliutil reports. Encoding is canonical — encoding/json over
// fixed structs — so load → re-encode is byte-identity, which the round-trip
// tests pin.
package journal

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"weakestfd/internal/net"
	"weakestfd/internal/probe"
)

// Version is the journal schema version this build reads and writes. Loaders
// reject journals stamped with a newer version — the records they would
// silently misread are exactly the ones a newer writer added fields to.
// Version 2 added the observational record fields (sent, proc, group) and the
// probe block in the meta; version-1 journals still load, verify and replay
// (the checker masks fields their writer could not have known), but offline
// probe recomputation refuses them — the fields it folds are not there.
const Version = 2

// KeepAll selects full-mode capture (every record) when passed as a
// recorder's ring size; positive sizes keep the last K records.
const KeepAll = -1

// Meta is the journal header: provenance and integrity data for the record
// stream that follows.
type Meta struct {
	SchemaVersion int `json:"schema_version"`
	// Protocol is the run's protocol name (scenario.Protocol.Name) — the
	// registry key replay rebuilds the protocol from.
	Protocol string `json:"protocol,omitempty"`
	// Config is the run's scenario configuration, embedded verbatim so a
	// journal is a self-contained reproducer (the journaling knobs
	// themselves are zeroed: replaying attaches a checker, not a recorder).
	Config json.RawMessage `json:"config,omitempty"`
	// TraceFingerprint is the run's trace digest — the hex SHA-256 the
	// records must hash back to (Verify). Empty for tainted runs.
	TraceFingerprint string `json:"trace_fingerprint,omitempty"`
	// TaintReason is why the run forfeited its trace, when it did: the
	// wall-clock escape that cut the schedule. Replay refuses tainted
	// journals with this reason instead of diverging confusingly.
	TaintReason string `json:"taint_reason,omitempty"`
	// Mode is "full" or "ring".
	Mode string `json:"mode"`
	// FirstIndex is the stream index of the first retained record: 0 in
	// full mode, TotalRecords-len(records) after a ring wrapped. A journal
	// with FirstIndex > 0 is a suffix — inspectable, but neither verifiable
	// nor replayable.
	FirstIndex int `json:"first_index"`
	// TotalRecords is how many records the run produced (>= the number
	// retained).
	TotalRecords int `json:"total_records"`
	// Events..Grants mirror the run's TraceStats counters.
	Events   int64 `json:"events"`
	Messages int64 `json:"messages"`
	Timers   int64 `json:"timers"`
	Crashes  int64 `json:"crashes"`
	Grants   int64 `json:"grants"`
	// Probes is the run's live-captured probe block (schema v2+): the fold
	// of the very record stream this journal stores, kept so replay -stats
	// can recompute the stream probes offline and assert equality, and so
	// the detection join (which needs the suspect history, not stored here)
	// survives alongside the records.
	Probes *probe.Probes `json:"probes,omitempty"`
}

// Modes of Meta.Mode.
const (
	ModeFull = "full"
	ModeRing = "ring"
)

// Record is one trace record in journal form — net.TraceRecord with the op
// and kind bytes rendered as strings for greppability. The zero values of
// optional fields are omitted, so a grant line is just
// {"op":"G","task":7}.
type Record struct {
	Op       string `json:"op"`             // "E", "G", "X"
	Kind     string `json:"kind,omitempty"` // "message", "timer", "crash" (events only)
	At       int64  `json:"at,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
	From     uint64 `json:"from,omitempty"`
	To       uint64 `json:"to,omitempty"`
	Instance string `json:"inst,omitempty"`
	Type     string `json:"type,omitempty"`
	Tid      uint64 `json:"tid,omitempty"`
	Task     uint64 `json:"task,omitempty"`
	// Sent, Proc and Group are the schema-v2 observational fields (message
	// enqueue time; granting/exiting task's process; trace-group exit flag).
	// They ride outside the trace hash, so Verify is version-independent.
	Sent  int64  `json:"sent,omitempty"`
	Proc  uint64 `json:"proc,omitempty"`
	Group bool   `json:"group,omitempty"`
}

// opNames / kindNames map the net-level record bytes to journal strings.
var opNames = map[byte]string{
	net.TraceOpEvent: "E",
	net.TraceOpGrant: "G",
	net.TraceOpExit:  "X",
}

var kindNames = map[byte]string{
	net.TraceKindMessage: "message",
	net.TraceKindTimer:   "timer",
	net.TraceKindCrash:   "crash",
}

// FromNet converts a live trace record to journal form.
func FromNet(tr net.TraceRecord) Record {
	r := Record{Op: opNames[tr.Op]}
	switch tr.Op {
	case net.TraceOpEvent:
		r.Kind = kindNames[tr.Kind]
		r.At = tr.At
		r.Seq = tr.Seq
		switch tr.Kind {
		case net.TraceKindMessage:
			r.From, r.To = tr.From, tr.To
			r.Instance, r.Type = tr.Instance, tr.Type
			r.Sent = tr.SentAt
		case net.TraceKindTimer:
			r.Tid = tr.Tid
		case net.TraceKindCrash:
			r.To = tr.To
		}
	case net.TraceOpGrant, net.TraceOpExit:
		r.Task = tr.Task
		r.Proc = tr.Proc
		r.Group = tr.Group
	}
	return r
}

// ToNet converts back to the net-level record, the form AppendHash is
// defined on. It rejects unknown ops and kinds (a corrupted or
// hand-mangled journal) rather than hashing garbage.
func (r Record) ToNet() (net.TraceRecord, error) {
	tr := net.TraceRecord{}
	switch r.Op {
	case "E":
		tr.Op = net.TraceOpEvent
	case "G":
		tr.Op = net.TraceOpGrant
	case "X":
		tr.Op = net.TraceOpExit
	default:
		return tr, fmt.Errorf("journal: unknown record op %q", r.Op)
	}
	if tr.Op == net.TraceOpEvent {
		switch r.Kind {
		case "message":
			tr.Kind = net.TraceKindMessage
			tr.From, tr.To = r.From, r.To
			tr.Instance, tr.Type = r.Instance, r.Type
			tr.SentAt = r.Sent
		case "timer":
			tr.Kind = net.TraceKindTimer
			tr.Tid = r.Tid
		case "crash":
			tr.Kind = net.TraceKindCrash
			tr.To = r.To
		default:
			return tr, fmt.Errorf("journal: unknown event kind %q", r.Kind)
		}
		tr.At, tr.Seq = r.At, r.Seq
	} else {
		tr.Task = r.Task
		tr.Proc = r.Proc
		tr.Group = r.Group
	}
	return tr, nil
}

// String renders the record compactly for divergence reports.
func (r Record) String() string {
	switch r.Op {
	case "E":
		switch r.Kind {
		case "message":
			return fmt.Sprintf("E message at=%d seq=%d %d->%d %s/%s", r.At, r.Seq, r.From, r.To, r.Instance, r.Type)
		case "timer":
			return fmt.Sprintf("E timer at=%d seq=%d tid=%d", r.At, r.Seq, r.Tid)
		case "crash":
			return fmt.Sprintf("E crash at=%d seq=%d p=%d", r.At, r.Seq, r.To)
		}
	case "G":
		return fmt.Sprintf("G task=%d", r.Task)
	case "X":
		return fmt.Sprintf("X task=%d", r.Task)
	}
	b, _ := json.Marshal(r)
	return string(b)
}

// Journal is one run's captured record stream plus its header.
type Journal struct {
	Meta    Meta
	Records []Record
}

// Encode renders the journal canonically: the meta line, then one line per
// record, each compact JSON. Encoding a loaded journal reproduces the input
// byte-for-byte (the round-trip tests pin this), so journals can be
// compared, hashed and diffed as files.
func (j *Journal) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(j.Meta); err != nil {
		return nil, fmt.Errorf("journal: encode meta: %w", err)
	}
	for i := range j.Records {
		if err := enc.Encode(j.Records[i]); err != nil {
			return nil, fmt.Errorf("journal: encode record %d: %w", j.Meta.FirstIndex+i, err)
		}
	}
	return buf.Bytes(), nil
}

// Decode parses a journal, rejecting future schema versions.
func Decode(data []byte) (*Journal, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("journal: read meta line: %w", err)
		}
		return nil, fmt.Errorf("journal: empty input")
	}
	j := &Journal{}
	if err := json.Unmarshal(sc.Bytes(), &j.Meta); err != nil {
		return nil, fmt.Errorf("journal: parse meta line: %w", err)
	}
	if j.Meta.SchemaVersion > Version {
		return nil, fmt.Errorf("journal: schema_version %d is newer than this build understands (%d); rebuild or use a newer binary", j.Meta.SchemaVersion, Version)
	}
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("journal: parse record line %d: %w", line, err)
		}
		j.Records = append(j.Records, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	return j, nil
}

// ReadFile loads a journal from path.
func ReadFile(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	j, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return j, nil
}

// Complete reports whether the journal holds the run's whole record stream.
// A ring capture that wrapped is a suffix: still inspectable, but not
// verifiable or replayable.
func (j *Journal) Complete() bool {
	return j.Meta.FirstIndex == 0 && len(j.Records) == j.Meta.TotalRecords
}

// suffixErr names exactly what is missing from a suffix journal.
func (j *Journal) suffixErr(op string) error {
	return fmt.Errorf("journal is a suffix: ring capture kept the last %d of %d records (first retained index %d); %s needs a full journal (capture with KeepAll)",
		len(j.Records), j.Meta.TotalRecords, j.Meta.FirstIndex, op)
}

// Verify recomputes the SHA-256 over the journal's records — through the
// same AppendHash encoding the live digest consumed — and cross-checks it
// against the recorded TraceFingerprint. A pass proves the journal and the
// trace hash saw the identical stream; drift between the recorder and the
// digest encodings (the class of bug PR 8's timer-lease leak was) fails
// here.
func (j *Journal) Verify() error {
	if j.Meta.TaintReason != "" {
		return fmt.Errorf("journal records a tainted run, which has no fingerprint to verify against: %s", j.Meta.TaintReason)
	}
	if j.Meta.TraceFingerprint == "" {
		return fmt.Errorf("journal records no trace fingerprint")
	}
	if !j.Complete() {
		return j.suffixErr("verification")
	}
	h := sha256.New()
	var buf [64]byte
	for i := range j.Records {
		tr, err := j.Records[i].ToNet()
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		h.Write(tr.AppendHash(buf[:0]))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != j.Meta.TraceFingerprint {
		return fmt.Errorf("journal records hash to %s, but the recorded trace fingerprint is %s: the journal and the trace digest did not see the same stream", got, j.Meta.TraceFingerprint)
	}
	return nil
}

// RecomputeProbes folds the journal's stored record stream through the
// probe analyzer — the offline twin of live capture, no re-execution. It
// refuses journals that cannot anchor the fold: tainted runs (the stream
// was cut at a wall-clock point), ring suffixes (the fold needs the whole
// stream) and schema-v1 journals (their records lack the sent/proc/group
// fields the fold consumes; re-record with this build).
func (j *Journal) RecomputeProbes() (probe.StreamProbes, error) {
	var none probe.StreamProbes
	if j.Meta.TaintReason != "" {
		return none, fmt.Errorf("journal records a tainted run; its stream was cut by wall-clock and has no well-defined probes: %s", j.Meta.TaintReason)
	}
	if !j.Complete() {
		return none, j.suffixErr("probe recomputation")
	}
	if j.Meta.SchemaVersion < 2 {
		return none, fmt.Errorf("journal schema_version %d predates the probe fields (sent/proc/group landed in 2); re-record the run to compute probes offline", j.Meta.SchemaVersion)
	}
	a := probe.NewAnalyzer(0)
	for i := range j.Records {
		tr, err := j.Records[i].ToNet()
		if err != nil {
			return none, fmt.Errorf("record %d: %w", i, err)
		}
		a.Record(tr)
	}
	return a.Finish(), nil
}

// Replayable reports whether the journal can anchor a replay, with a
// precise refusal otherwise: tainted runs (the schedule suffix was cut by
// wall-clock; replay would diverge at an unpinnable point) and ring
// suffixes (replay would "diverge" at record 0 for the wrong reason).
func (j *Journal) Replayable() error {
	if j.Meta.TaintReason != "" {
		return fmt.Errorf("journal records a tainted run; the recorded schedule is not reproducible: %s", j.Meta.TaintReason)
	}
	if !j.Complete() {
		return j.suffixErr("replay")
	}
	if len(j.Meta.Config) == 0 {
		return fmt.Errorf("journal carries no scenario config to re-execute")
	}
	return nil
}

// IsPrefix reports whether short's record stream is a prefix of long's.
// Both journals must be complete (a ring suffix has no well-defined
// prefix relation). This is the acceptance relation trace-minimisation
// uses: a shrunk config whose whole schedule is an exact prefix of the
// reference schedule exercised the same executions, just fewer of them.
func IsPrefix(long, short *Journal) bool {
	if !long.Complete() || !short.Complete() {
		return false
	}
	if len(short.Records) > len(long.Records) {
		return false
	}
	for i := range short.Records {
		if short.Records[i] != long.Records[i] {
			return false
		}
	}
	return true
}
