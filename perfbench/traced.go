package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"weakestfd/internal/probe"
	"weakestfd/internal/scenario"
)

// traced is the --trace 1 invocation. Over the window it alternates an
// untraced reference pass (Sweep for the sweep workloads; for
// campaign-explore, the explored unit's configurations re-run untraced)
// with a traced pass that drives the same configurations itself with a
// timestamping recorder per run. Then it times each layer's public
// functions from outside: net, fd, check, probe, explore and campaign.
func traced(ctx context.Context, o options, w workload, workers int, rep *report) error {
	if err := w.setup(ctx); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	cfgs, ref, err := w.points(ctx)
	if err != nil {
		return err
	}
	rep.digests = append(rep.digests, digestOf(ref))
	sw, isSweep := w.(*sweepWorkload)

	var (
		runs                  []tracedRun
		rt                    rtDelta
		plainRuns, tracedN    int
		plainTime, tracedTime time.Duration
		sweepBusy             time.Duration
		lastPass              int
	)
	window := time.Duration(o.seconds) * time.Second
	for n := 0; n < 2 || plainTime+tracedTime < window; n++ {
		a := readRuntime()
		t0 := time.Now()
		if isSweep {
			p := sw.pass(ctx)
			plainRuns += p.runs
			plainTime += p.elapsed
			sweepBusy += p.busy
			rep.Attempted += p.runs
			rep.Failed += failedRuns(passResult{hashes: ref}, p)
		} else {
			rs, d := drive(ctx, w, cfgs, ref, workers, false)
			plainRuns += len(rs)
			plainTime += d
			rep.Attempted += len(rs)
			rep.Failed += failures(rs)
		}
		rt.add(a, readRuntime())
		rep.spans.add("pass.untraced", 0, -1, t0, time.Now(), nil)

		t0 = time.Now()
		rs, d := drive(ctx, w, cfgs, ref, workers, true)
		lastPass = rep.spans.add("pass.traced", 0, -1, t0, time.Now(), nil)
		runs = append(runs, rs...)
		tracedN += len(rs)
		tracedTime += d
		rep.Attempted += len(rs)
		rep.Failed += failures(rs)
	}

	// Spans of every run of the last traced pass; the metrics below cover
	// every pass.
	last := runs[len(runs)-len(cfgs):]
	for i := range last {
		rep.spans.addRun(lastPass, i, &last[i])
	}

	// Per-run split, summed over every traced run.
	var sum tracedRun
	var tainted int
	var setups, finishes, checks []float64
	for i := range runs {
		r := &runs[i]
		sum.wall += r.wall
		sum.setup += r.setup
		sum.finish += r.finish
		sum.dispatch += r.dispatch
		sum.step += r.step
		sum.exit += r.exit
		sum.records += r.records
		sum.events += r.events
		sum.messages += r.messages
		sum.timers += r.timers
		sum.grants += r.grants
		sum.samples += r.samples
		if r.tainted {
			tainted++
		}
		setups = append(setups, us(r.setup))
		finishes = append(finishes, us(r.finish))
		checks = append(checks, us(r.check))
	}
	nr := float64(len(runs))
	wall := float64(sum.wall)
	rep.set("scenario.setup_us", median(setups), "us")
	rep.set("scenario.finish_us", median(finishes), "us")
	rep.set("scenario.taint_ratio", float64(tainted)/nr, "ratio")
	rep.set("scenario.split_coverage", float64(sum.setup+sum.dispatch+sum.step+sum.finish)/wall, "ratio")
	rep.set("net.events_per_run", float64(sum.events)/nr, "count")
	rep.set("net.messages_per_run", float64(sum.messages)/nr, "count")
	rep.set("net.timers_per_run", float64(sum.timers)/nr, "count")
	rep.set("net.grants_per_run", float64(sum.grants)/nr, "count")
	rep.set("net.dispatch_ns_per_event", perUnit(sum.dispatch, sum.events), "ns")
	rep.set("net.dispatch_share", float64(sum.dispatch)/wall, "ratio")
	rep.set("net.records_per_ms", float64(sum.records)/ms(sum.wall), "1/ms")
	rep.set("task.step_ns_per_grant", perUnit(sum.step, sum.grants), "ns")
	rep.set("task.step_share", float64(sum.step)/wall, "ratio")
	rep.set("fd.samples_per_run", float64(sum.samples)/nr, "count")
	rep.set("check.verdict_us", median(checks), "us")
	plainRPS := float64(plainRuns) / plainTime.Seconds()
	tracedRPS := float64(tracedN) / tracedTime.Seconds()
	rep.set("trace.overhead_ratio", tracedRPS/plainRPS, "ratio")
	rep.set("runtime.gc_cpu_share", rt.gcShare(), "ratio")
	rep.set("runtime.sched_latency_p50_us", rt.schedLatencyP50()*1e6, "us")
	rep.note("split over %d traced runs: setup %.1f%%, dispatch %.1f%%, step %.1f%%, finish %.1f%%, exit %.2f%%",
		len(runs), 100*float64(sum.setup)/wall, 100*float64(sum.dispatch)/wall, 100*float64(sum.step)/wall,
		100*float64(sum.finish)/wall, 100*float64(sum.exit)/wall)
	rep.note("runs_per_s untraced %.4g, traced %.4g", plainRPS, tracedRPS)
	fitCostModel(runs, w.sampleTerm(), rep)

	return layerProbes(ctx, o, w, workers, cfgs, ref, last, sweepBusy, plainTime, rep)
}

func failures(rs []tracedRun) int {
	n := 0
	for i := range rs {
		if !rs[i].ok {
			n++
		}
	}
	return n
}

func perUnit(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// fitCostModel fits run wall ≈ setup + events·c_e + grants·c_g over the
// traced runs, plus samples·c_s when the workload asks for the detector
// term. Event and grant counts move together from run to run, so a
// regression of the wall alone cannot tell c_e from c_g; each coefficient
// is instead fitted against its own layer's time from the split (dispatch
// time on events, step time on grants and samples), and setup is the mean
// of everything outside those gaps. residual_share, Σ|wall − model| /
// Σ wall, is the share of run wall the counts do not explain.
func fitCostModel(runs []tracedRun, sampleTerm bool, rep *report) {
	n := len(runs)
	events, grants, samples := make([]float64, n), make([]float64, n), make([]float64, n)
	dispatch, step := make([]float64, n), make([]float64, n)
	var fixed float64
	for i, r := range runs {
		events[i], grants[i], samples[i] = float64(r.events), float64(r.grants), float64(r.samples)
		dispatch[i], step[i] = float64(r.dispatch), float64(r.step)
		fixed += float64(r.setup + r.finish + r.exit)
	}
	setup := fixed / float64(n)
	cEvent := fitThroughOrigin(events, dispatch)
	cGrant, cSample := fitThroughOrigin(grants, step), 0.0
	if sampleTerm {
		if g, s, ok := fit2(grants, samples, step); ok && g > 0 && s > 0 {
			cGrant, cSample = g, s
		}
	}
	var res, tot float64
	for i, r := range runs {
		wall := float64(r.wall)
		res += math.Abs(wall - (setup + cEvent*events[i] + cGrant*grants[i] + cSample*samples[i]))
		tot += wall
	}
	rep.set("model.c_event_ns", cEvent, "ns")
	rep.set("model.c_grant_ns", cGrant, "ns")
	rep.set("model.residual_share", res/tot, "ratio")
	rep.note("cost model: setup %.1f us, c_event %.1f ns, c_grant %.1f ns, c_sample %.1f ns, residual %.3f",
		setup/1e3, cEvent, cGrant, cSample, res/tot)
}

// layerProbes times each remaining layer's public functions from outside,
// at the workload's n and on the workload's inputs. sweepBusy is Σ run wall
// over the untraced Sweep passes, which took plainTime; it is 0 where the
// workload has no Sweep pass.
func layerProbes(ctx context.Context, o options, w workload, workers int, cfgs []scenario.Config, ref []string,
	last []tracedRun, sweepBusy, plainTime time.Duration, rep *report) error {
	reps := func(full, small int) int {
		if o.tiny {
			return small
		}
		return full
	}
	t0 := time.Now()
	rep.set("net.setup_us", netSetupUS(w.n(), reps(200, 5)), "us")
	rep.spans.add("net.setup", 0, -1, t0, time.Now(), nil)

	for _, spec := range detectorClasses {
		class, _, _ := strings.Cut(spec, "{")
		t0 := time.Now()
		build, sample, err := fdProbe(spec, w.n(), reps(100, 3), reps(20000, 200))
		if err != nil {
			return fmt.Errorf("fd probe: %w", err)
		}
		rep.spans.add("fd."+class, 0, -1, t0, time.Now(), nil)
		rep.set("fd.build_us."+class, build, "us")
		rep.set("fd.sample_ns."+class, sample, "ns")
	}

	// probe.Agg.Add over one pass of per-run Probes: the last traced pass's
	// when the workload runs with probes, else an extra probed pass (probes
	// are observe-only, so the hashes must still match).
	if !w.probes() {
		probed := make([]scenario.Config, len(cfgs))
		for i, c := range cfgs {
			c.Probes = true
			probed[i] = c
		}
		t0 := time.Now()
		rs, _ := drive(ctx, w, probed, ref, workers, false)
		rep.spans.add("pass.probed", 0, -1, t0, time.Now(), nil)
		rep.Attempted += len(rs)
		rep.Failed += failures(rs)
		last = rs
	}
	var folds []float64
	for range reps(20, 2) {
		t0 := time.Now()
		agg := probe.NewAgg()
		for i := range last {
			agg.Add(last[i].probes)
		}
		folds = append(folds, ms(time.Since(t0)))
	}
	rep.set("probe.agg_ms", median(folds), "ms")

	spec := w.exploreSpec()
	t0 = time.Now()
	ex, err := exploreUnit(ctx, &spec, workers)
	if err != nil {
		return fmt.Errorf("explore probe: %w", err)
	}
	rep.spans.add("explore.unit", 0, -1, t0, time.Now(), map[string]float64{"runs": float64(spec.Runs)})
	rep.set("explore.plan_share", ex.planShare, "ratio")
	rep.set("explore.novel_ratio", ex.novelRatio, "ratio")
	if sweepBusy > 0 {
		rep.set("scenario.sweep_idle_share", 1-float64(sweepBusy)/(float64(plainTime)*float64(workers)), "ratio")
	} else {
		rep.set("scenario.sweep_idle_share", ex.idleShare, "ratio")
	}

	m := w.campaignManifest()
	t0 = time.Now()
	cr, err := runCampaign(ctx, o.tmpDir(), m, workers)
	if err != nil {
		return fmt.Errorf("campaign probe: %w", err)
	}
	cid := rep.spans.add("campaign", 0, -1, t0, time.Now(), nil)
	rep.spans.add("campaign.plan", cid, -1, t0, t0.Add(cr.plan), nil)
	var units []float64
	at := t0.Add(cr.plan)
	for _, u := range cr.units {
		rep.spans.add("campaign.unit", cid, -1, at, at.Add(u), nil)
		at = at.Add(u)
		units = append(units, ms(u))
	}
	rep.spans.add("campaign.merge", cid, -1, t0.Add(cr.total-cr.merge), t0.Add(cr.total), nil)
	rep.set("campaign.plan_ms", ms(cr.plan), "ms")
	rep.set("campaign.unit_ms", median(units), "ms")
	rep.set("campaign.merge_ms", ms(cr.merge), "ms")
	rep.Attempted++
	if !w.mergedOK(cr.merged) {
		rep.Failed++
		rep.note("campaign probe: merged report does not match the manifest")
	}
	rep.digests = append(rep.digests, cr.digest)
	return nil
}
