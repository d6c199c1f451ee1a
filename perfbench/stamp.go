package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// stamp identifies what was measured and where. It carries no wall-clock
// timestamp.
type stamp struct {
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	CPUModel     string `json:"cpu_model"`
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

// newStamp reads the stamp from the working directory, which is the
// repository root.
func newStamp(o options) stamp {
	return stamp{
		Commit:       gitCommit("."),
		SourceSHA256: sourceDigest("."),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Trace:        o.trace,
	}
}

// gitCommit resolves HEAD from the .git directory without running git;
// "none" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root (hidden
// directories excluded), so a stamp identifies the code even where there
// is no git history.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if name := d.Name(); !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the invocation started; Parent 0 is the root; Run is the traced
// run the span belongs to, or -1.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Run    int                `json:"run"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; write saves them when the benchmark ends.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) add(name string, parent, run int, start, end time.Time, attrs map[string]float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)), Attrs: attrs})
	return id
}

// addRun records one traced run as a scenario.run span with its setup,
// finish and check children; the dispatch and step totals, which are sums
// of many gaps rather than one interval, ride as attributes.
func (t *tracer) addRun(parent, run int, r *tracedRun) {
	end := r.start.Add(r.wall)
	id := t.add("scenario.run", parent, run, r.start, end, map[string]float64{
		"dispatch_ns": float64(r.dispatch), "step_ns": float64(r.step), "exit_ns": float64(r.exit),
		"events": float64(r.events), "grants": float64(r.grants), "records": float64(r.records),
	})
	t.add("scenario.setup", id, run, r.start, r.start.Add(r.setup), nil)
	t.add("scenario.finish", id, run, end.Add(-r.finish), end, nil)
	t.add("check.verdict", id, run, end, end.Add(r.check), nil)
}

// write saves the stamp and every span as JSON lines in dir.
func (t *tracer) write(dir string, o options, st stamp) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%t.jsonl", o.workload, o.seed, o.trace)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(st); err != nil {
		f.Close()
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
