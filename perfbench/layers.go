package main

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"weakestfd/internal/campaign"
	"weakestfd/internal/check"
	"weakestfd/internal/explore"
	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/probe"
	"weakestfd/internal/scenario"
)

// stampRecorder timestamps every step-trace record of one run. It is
// attached through the public scenario.Config.Recorder hook; Record runs on
// the scheduler's token-serialized path, so it needs no lock.
type stampRecorder struct {
	base  time.Time
	at    []time.Duration
	ops   []byte
	kinds []byte
}

func (r *stampRecorder) Record(rec net.TraceRecord) {
	r.at = append(r.at, time.Since(r.base))
	r.ops = append(r.ops, rec.Op)
	r.kinds = append(r.kinds, rec.Kind)
}

func (r *stampRecorder) reset(base time.Time) {
	r.base = base
	r.at, r.ops, r.kinds = r.at[:0], r.ops[:0], r.kinds[:0]
}

// tracedRun is one run's wall time split by layer. The split is read off
// the record stream: setup runs from the Run call to the first record,
// finish from the last record to Run's return, and every gap between two
// records belongs to the layer that wrote the earlier one — the dispatcher
// after an event record, the granted task after a grant record, the task's
// teardown after an exit record.
type tracedRun struct {
	start                                     time.Time
	wall, setup, finish, dispatch, step, exit time.Duration
	records, events, messages, timers, grants int64
	samples                                   int64 // fd history samples
	tainted                                   bool
	check                                     time.Duration // check.CheckConsensus re-run
	hash                                      string
	ok                                        bool
	probes                                    *probe.Probes
}

func (t *tracedRun) split(r *stampRecorder) {
	if len(r.at) == 0 {
		t.setup = t.wall
		return
	}
	t.setup = r.at[0]
	t.finish = t.wall - r.at[len(r.at)-1]
	for i, op := range r.ops {
		switch op {
		case net.TraceOpEvent:
			t.events++
			switch r.kinds[i] {
			case net.TraceKindMessage:
				t.messages++
			case net.TraceKindTimer:
				t.timers++
			}
		case net.TraceOpGrant:
			t.grants++
		}
		if i+1 == len(r.at) {
			break
		}
		gap := r.at[i+1] - r.at[i]
		switch op {
		case net.TraceOpEvent:
			t.dispatch += gap
		case net.TraceOpGrant:
			t.step += gap
		default:
			t.exit += gap
		}
	}
	t.records = int64(len(r.at))
}

// drive runs cfgs itself — scenario.FromConfig(cfg).Run over a fixed set of
// worker goroutines, as Sweep does — with a fresh timestamping recorder per
// run when traced. Each run is checked three ways: the workload's expected
// verdict, its hash against the untraced reference, and (traced) the
// recorder's counts against Result.TraceSummary and check.CheckConsensus
// re-run on the outcomes against Result.Verdict.
func drive(ctx context.Context, w workload, cfgs []scenario.Config, ref []string, workers int, traced bool) ([]tracedRun, time.Duration) {
	proto := scenario.Consensus{}
	out := make([]tracedRun, len(cfgs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &stampRecorder{}
			for i := range jobs {
				cfg := cfgs[i]
				if traced {
					cfg.Recorder = rec
				}
				t := &out[i]
				t.start = time.Now()
				rec.reset(t.start)
				res := scenario.FromConfig(cfg).Run(ctx, proto)
				t.wall = time.Since(t.start)
				t.hash = runHash(&res)
				t.ok = w.expect(&res) && t.hash == ref[i]
				t.samples = int64(res.HistoryDepth) + res.HistoryDropped
				t.tainted = res.TraceSummary.TaintReason != ""
				t.probes = res.Probes
				if !traced {
					continue
				}
				t.split(rec)
				if s := res.TraceSummary; !t.tainted && (s.Events != t.events || s.Messages != t.messages || s.Timers != t.timers || s.Grants != t.grants) {
					t.ok = false
				}
				c0 := time.Now()
				v := check.CheckConsensus(res.Pattern, consensusOutcome(res.Outcomes), res.Config.RequireTermination)
				t.check = time.Since(c0)
				if !reflect.DeepEqual(v, res.Verdict) {
					t.ok = false
				}
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out, time.Since(start)
}

// consensusOutcome rebuilds the checker's input from a run's outcomes the
// way the consensus protocol descriptor does.
func consensusOutcome(outs []scenario.Outcome) check.ConsensusOutcome {
	o := check.ConsensusOutcome{Proposals: map[model.ProcessID]any{}}
	for _, out := range outs {
		o.Proposals[out.Process] = out.Input
		if out.Returned {
			o.Decisions = append(o.Decisions, check.Decision{Process: out.Process, Value: out.Value, Time: out.End})
		}
	}
	return o
}

// detectorClasses are the detector specs the fd probes build, one per class
// any workload runs.
var detectorClasses = []string{"omega-sigma", "perfect", "eventually-perfect{stabilize:50}", "eventually-strong{stabilize:50}"}

// tick is a settable logical clock for the fd probes.
type tick struct{ now model.Time }

func (c *tick) Now() model.Time { return c.now }

// fdProbe times fd.DefaultRegistry().Build of one class at n and the Ω and
// Σ At queries a consensus participant makes on the suite, with the
// suspect-history ring a scenario run records into.
func fdProbe(spec string, n, builds, queries int) (buildUS, sampleNS float64, err error) {
	ds, err := fd.ParseSpec(spec)
	if err != nil {
		return 0, 0, err
	}
	pattern := model.NewFailurePattern(n)
	pattern.Crash(model.ProcessID(n-1), 20)
	clk := &tick{}
	var times []float64
	var suite *fd.Suite
	for range builds {
		env := fd.Env{Pattern: pattern, Clock: clk, SuspectHist: model.NewHistoryWithLimit(scenario.DefaultHistoryLimit)}
		t0 := time.Now()
		suite, err = fd.DefaultRegistry().Build(env, ds)
		times = append(times, us(time.Since(t0)))
		if err != nil {
			return 0, 0, err
		}
		if suite.Stop != nil {
			suite.Stop()
		}
	}
	if suite.Omega == nil || suite.Sigma == nil {
		return 0, 0, fmt.Errorf("detector spec %s provides no Ω or Σ", spec)
	}
	t0 := time.Now()
	for q := range queries {
		clk.now = model.Time(q % 200)
		p := model.ProcessID(q % n)
		suite.Omega.At(p)
		suite.Sigma.At(p)
	}
	return median(times), float64(time.Since(t0).Nanoseconds()) / float64(2*queries), nil
}

// netSetupUS is the median cost of net.NewNetwork(n) plus Close, with no
// traffic.
func netSetupUS(n, reps int) float64 {
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		net.NewNetwork(n).Close()
		times[i] = us(time.Since(t0))
	}
	return median(times)
}

// exploreRun is one explore unit driven through ExploreSpec.Options and
// explore.Explore, with every run's interval taken from OnRun.
type exploreRun struct {
	cfgs       []scenario.Config
	hashes     []string
	elapsed    time.Duration
	planShare  float64 // share of the wall time with no run in flight
	idleShare  float64 // 1 − Σ run wall / (elapsed × workers)
	novelRatio float64
}

func exploreUnit(ctx context.Context, spec *campaign.ExploreSpec, workers int) (exploreRun, error) {
	var ex exploreRun
	opts, err := spec.Options(spec.Seed)
	if err != nil {
		return ex, err
	}
	opts.Workers = workers
	type interval struct{ from, to time.Time }
	var mu sync.Mutex
	var ivs []interval
	var busy time.Duration
	ex.cfgs = make([]scenario.Config, opts.Runs)
	ex.hashes = make([]string, opts.Runs)
	opts.OnRun = func(run int, res *scenario.Result) {
		end := time.Now()
		ex.cfgs[run-1] = res.Config.Clone()
		ex.hashes[run-1] = runHash(res)
		mu.Lock()
		defer mu.Unlock()
		ivs = append(ivs, interval{end.Add(-res.Wall), end})
		busy += res.Wall
	}
	start := time.Now()
	rep, err := explore.Explore(ctx, opts)
	if err != nil {
		return ex, err
	}
	ex.elapsed = time.Since(start)
	if rep.Runs != opts.Runs {
		return ex, fmt.Errorf("explore ran %d of %d runs", rep.Runs, opts.Runs)
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from.Before(ivs[j].from) })
	var covered time.Duration
	var curFrom, curTo time.Time
	for i, iv := range ivs {
		if i == 0 || iv.from.After(curTo) {
			covered += curTo.Sub(curFrom)
			curFrom, curTo = iv.from, iv.to
		} else if iv.to.After(curTo) {
			curTo = iv.to
		}
	}
	covered += curTo.Sub(curFrom)
	ex.planShare = 1 - float64(covered)/float64(ex.elapsed)
	ex.idleShare = 1 - float64(busy)/(float64(ex.elapsed)*float64(workers))
	ex.novelRatio = float64(rep.Novel) / float64(rep.Runs)
	return ex, nil
}
