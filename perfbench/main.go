// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed number of seconds through the same public entry
// points the CLIs use — cliutil.BuildGrid plus scenario.Sweep (cmd/sweep),
// or campaign.Plan, RunShard and MergeDir (cmd/campaign) — checks every
// output, and prints its metrics. With --trace 0 it prints the end-to-end
// metrics; with --trace 1 it drives the same runs itself with a
// timestamping recorder on the step-trace stream and prints the per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"runs_per_s": {"value": 440.2, "unit": "1/s"}, ...}}
//
// Run it from the repository root through perfbench/run.py, which builds
// this module first (see perfbench/README.md):
//
//	python3 perfbench/run.py --workload sweep-n5 --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool
	outDir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one invocation produced: the result line, notes
// for the human-readable part of the output, the digests and the spans.
type report struct {
	result
	stamp   stamp
	notes   []string
	digests []string
	spans   *tracer
}

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every size (smoke test)")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for temp dirs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || o.seconds < 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		return 2
	}
	o.trace = trace == 1
	rep, err := execute(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.spans.write(filepath.Join(o.outDir, "spans"), o, rep.stamp); err != nil {
		fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
		return 1
	}
	printReport(stdout, rep)
	return 0
}

func (o options) tmpDir() string { return filepath.Join(o.outDir, "tmp") }

// execute runs one workload invocation.
func execute(o options) (*report, error) {
	if err := os.MkdirAll(o.tmpDir(), 0o755); err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	w, err := newWorkload(o.workload, o.seed, workers, o.tiny, o.tmpDir())
	if err != nil {
		return nil, err
	}
	rep := &report{result: result{Metrics: map[string]metric{}}, stamp: newStamp(o), spans: newTracer()}
	// A run must end well within the benchmark's time limit even if the
	// program hangs; cancelled runs then count as failed.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(2*o.seconds+60)*time.Second)
	defer cancel()
	if o.trace {
		err = traced(ctx, o, w, workers, rep)
	} else {
		err = endToEnd(ctx, o, w, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

// setupReps is how many times set-up runs; setup_s is their median.
func setupReps(o options) int {
	if o.tiny {
		return 1
	}
	return 9
}

// endToEnd measures the workload untraced: set-up several times, then
// repeated passes over the same inputs until the window is over. Rates and
// per-run costs are medians over passes, so a slow spell on a shared
// machine moves a few passes rather than the result.
func endToEnd(ctx context.Context, o options, w workload, rep *report) error {
	var setups []float64
	for range setupReps(o) {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		rep.spans.add("setup", 0, -1, t0, time.Now(), nil)
		setups = append(setups, time.Since(t0).Seconds())
	}

	cpus := runtime.NumCPU()
	var (
		samples, raw, rates, cpuPerRun, allocs []float64
		elapsed, steal                         time.Duration
		first                                  passResult
	)
	window := time.Duration(o.seconds) * time.Second
	for n := 0; n < 2 || elapsed < window; n++ {
		t0, cpu0, alloc0, steal0 := time.Now(), cpuTime(), heapAllocs(), stolen()
		p := w.pass(ctx)
		cpu1, alloc1, steal1 := cpuTime(), heapAllocs(), stolen()
		rep.spans.add("pass", 0, -1, t0, time.Now(), map[string]float64{"runs": float64(p.runs), "failed": float64(p.failed), "cpu_ms": ms(cpu1 - cpu0), "stolen_ms": ms(steal1 - steal0)})
		if n == 0 {
			first = p
			rep.digests = append(rep.digests, p.digest)
		}
		rep.Attempted += p.runs
		rep.Failed += failedRuns(first, p)
		// Time the hypervisor stole from this machine's CPUs during the pass
		// stretched every run in it; take it out, so that neighbours on a
		// shared host move the figures less than the code does. A pass whose
		// runs wait out a wall-clock Timeout is not stretched.
		share := 1.0
		if !p.timedOut {
			share = unstolen(p.elapsed, steal1-steal0, cpus)
		}
		for _, v := range p.samples {
			samples = append(samples, v*share)
		}
		raw = append(raw, p.samples...)
		elapsed += p.elapsed
		steal += steal1 - steal0
		runs := float64(p.runs)
		rates = append(rates, runs/(p.elapsed.Seconds()*share))
		cpuPerRun = append(cpuPerRun, ms(cpu1-cpu0)/runs)
		allocs = append(allocs, float64(alloc1-alloc0)/1024/runs)
	}
	q, chunk := w.tail()
	tail, chunks := chunkedQuantile(samples, q, chunk)
	rep.set("runs_per_s", median(rates), "1/s")
	rep.set("run_ms_p50", median(samples), "ms")
	rep.set("run_ms_tail", tail, "ms")
	rep.set("cpu_ms_per_run", median(cpuPerRun), "ms")
	rep.set("alloc_kb_per_run", median(allocs), "KiB")
	rep.set("peak_rss_mb", peakRSSMB(), "MiB")
	rep.set("setup_s", median(setups), "s")
	rep.note("%d passes, %d runs in %.1f s; rates and per-run costs are medians over passes", len(rates), rep.Attempted, elapsed.Seconds())
	rep.note("hypervisor steal %.1f%% of CPU time; uncorrected: %.6g runs per wall second, median run %.6g ms",
		100*(1-unstolen(elapsed, steal, cpus)), float64(rep.Attempted)/elapsed.Seconds(), median(raw))
	if chunks > 0 {
		rep.note("run_ms_tail is p%g per chunk of %d consecutive samples (%d beyond it), median over %d chunks of %d samples",
			100*q, chunk, int(math.Round(float64(chunk)*(1-q))), chunks, len(samples))
	} else {
		rep.note("run_ms_tail is p%g of %d samples (%d beyond it)", 100*q, len(samples), int(float64(len(samples))*(1-q)))
	}
	if _, ok := w.(*campaignWorkload); ok {
		rep.note("campaign-explore latency samples are per unit: unit wall / runs per unit")
	}
	rep.note("failed_ratio %g (%d of %d runs)", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	return nil
}

// failedRuns counts the runs of p that failed a check, or whose
// deterministic content differs from the same run of the first pass over
// the same inputs.
func failedRuns(first, p passResult) int {
	if first.hashes == nil { // a campaign pass is checked as a whole
		if p.failed > 0 || p.digest != first.digest {
			return p.runs
		}
		return 0
	}
	n := 0
	for i := range p.hashes {
		if p.bad[i] || p.hashes[i] != first.hashes[i] {
			n++
		}
	}
	return n
}

// printReport writes the human-readable report, then the result line.
func printReport(out io.Writer, rep *report) {
	st, _ := json.Marshal(rep.stamp)
	fmt.Fprintf(out, "stamp %s\n", st)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(out, "note %s\n", n)
	}
	for _, d := range rep.digests {
		fmt.Fprintf(out, "digest %s\n", d)
	}
	line, _ := json.Marshal(rep.result)
	fmt.Fprintf(out, "%s\n", line)
}
