// Package extract implements the "necessity" constructions of the paper: the
// transformation algorithms that emulate a weakest failure detector out of
// any algorithm solving the corresponding problem.
//
//   - SigmaExtractor (Figure 1): given an implementation of atomic registers
//     (one register per process, written by its owner), emulate the quorum
//     detector Σ. This is the necessity half of Theorem 1.
//   - PsiExtractor (Figure 3): given a QC algorithm A using a failure
//     detector D, emulate Ψ — initially ⊥, then either an FS behaviour
//     (only after a real failure) or an (Ω, Σ) behaviour agreed on by all
//     processes. This is the necessity half of Theorem 6. The Ω component of
//     the (Ω, Σ) regime uses a documented executable approximation of the
//     Chandra–Hadzilacos–Toueg limit-forest argument; see the PsiExtractor
//     documentation and DESIGN.md, substitution 5.
//
// Both extractors run against the concrete implementations in this module
// (the Σ-register of internal/register, the step-model QC automaton of
// internal/sim), standing in for the paper's universally quantified
// "any algorithm A" — no executable artifact can quantify over all
// algorithms; see DESIGN.md, substitution 3.
package extract

import (
	"context"
	"fmt"
	"sync"
	"time"

	"weakestfd/internal/fd"
	"weakestfd/internal/model"
	"weakestfd/internal/net"
	"weakestfd/internal/register"
	"weakestfd/internal/trace"
)

// RegContents is the value the Figure 1 transformation stores in each
// register: the write counter k and the set Ei of participant sets of the
// owner's previous writes.
type RegContents struct {
	K    int
	Sets []model.ProcessSet
}

// SigmaExtractor runs the Figure 1 transformation at one process: it
// repeatedly writes to its own register, tracks the participants of each
// write, reads every other register, and contacts one member of every
// participant set it observes. Its Quorum output satisfies the Σ
// specification whenever the underlying registers are atomic and live.
type SigmaExtractor struct {
	ep       *net.Endpoint
	regs     []*register.Register[RegContents]
	pingInst string
	pongInst string
	interval time.Duration
	metrics  *trace.Metrics
	hist     *model.History

	mu     sync.Mutex
	output model.ProcessSet
	rounds int

	ctx      context.Context
	cancel   context.CancelFunc
	runTask  *net.Task
	respTask *net.Task
	done     chan struct{}
	respDone chan struct{}
}

// SigmaExtractorConfig configures one process's extractor.
type SigmaExtractorConfig struct {
	// Endpoint is the local process's network endpoint.
	Endpoint *net.Endpoint
	// Registers holds this process's handle on every register group;
	// Registers[j] must be the register written by process j. The extractor
	// writes only to Registers[Endpoint.ID()].
	Registers []*register.Register[RegContents]
	// Instance namespaces the extractor's own ping/pong traffic.
	Instance string
	// Interval is the pause between iterations of the main loop. Default 1ms.
	Interval time.Duration
	// History, if non-nil, receives every Σ-output update for spec checking.
	// Pass model.NewHistoryWithLimit for long-lived extractors whose history
	// is informational rather than checker input — a capped history keeps
	// only the most recent samples, so the perpetual Σ clauses would be
	// checked over a sliding window only.
	History *model.History
	// Metrics, if non-nil, counts iterations and pings.
	Metrics *trace.Metrics
}

// StartSigmaExtractor starts the transformation at one process. Every process
// of the system must run one for the construction to be meaningful (each
// provides the responder of task 2 and writes its own register). Both tasks
// of Figure 1 run as scheduler tasks of the endpoint's network, so the
// construction's steps interleave deterministically with everything else.
func StartSigmaExtractor(cfg SigmaExtractorConfig) *SigmaExtractor {
	interval := cfg.Interval
	if interval == 0 {
		interval = time.Millisecond
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = trace.NewMetrics()
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &SigmaExtractor{
		ep:       cfg.Endpoint,
		regs:     cfg.Registers,
		pingInst: "xsigma." + cfg.Instance + ".ping",
		pongInst: "xsigma." + cfg.Instance + ".pong",
		interval: interval,
		metrics:  metrics,
		hist:     cfg.History,
		output:   model.AllProcesses(cfg.Endpoint.N()),
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		respDone: make(chan struct{}),
	}
	nw := cfg.Endpoint.Network()
	e.respTask = nw.Go(cfg.Endpoint, "extract.respond", e.respond)
	e.runTask = nw.Go(cfg.Endpoint, "extract.run", e.run)
	return e
}

// Sample implements fd.Sigma: the current emulated Σ output.
func (e *SigmaExtractor) Sample() model.ProcessSet {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.output.Clone()
}

// Rounds returns how many iterations of the main loop have completed.
func (e *SigmaExtractor) Rounds() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rounds
}

// Metrics returns the extractor's metrics sink.
func (e *SigmaExtractor) Metrics() *trace.Metrics { return e.metrics }

// Stop terminates the extractor's tasks: it cancels their context and wakes
// them, so each observes the cancellation on its next step and exits.
func (e *SigmaExtractor) Stop() {
	e.cancel()
	e.runTask.Wake()
	e.respTask.Wake()
	<-e.done
	<-e.respDone
}

type pingMsg struct {
	Token int64
}

type pongMsg struct {
	Token int64
}

// respond implements task 2 of Figure 1: answer every ping.
func (e *SigmaExtractor) respond(task *net.Task) {
	defer close(e.respDone)
	in := e.ep.Instance(e.pingInst)
	in.Watch(task)
	for {
		for {
			msg, ok := in.TryRecv()
			if !ok {
				break
			}
			if msg.Type == "ping" {
				e.ep.Send(msg.From, e.pongInst, "pong", pongMsg{Token: msg.Payload.(pingMsg).Token})
			}
		}
		if e.ctx.Err() != nil || e.ep.Context().Err() != nil {
			return
		}
		task.Await(nil)
	}
}

// run implements task 1 of Figure 1. The register operations and the pause
// run inside this task (ctx carries it), so they park it rather than adopt
// tasks of their own.
func (e *SigmaExtractor) run(task *net.Task) {
	defer close(e.done)
	ctx := net.WithTask(e.ctx, task)
	self := int(e.ep.ID())
	pongs := e.ep.Instance(e.pongInst)
	pongs.Watch(task)

	sets := []model.ProcessSet{model.AllProcesses(e.ep.N())} // Ei, with Pi(0) = Π
	prev := model.AllProcesses(e.ep.N())                     // Pi(k-1)
	token := int64(0)

	for k := 1; ; k++ {
		if ctx.Err() != nil || e.ep.Crashed() {
			return
		}
		// Line 8: write (k, Ei) into our own register and record the
		// participants of the write.
		participants, err := e.regs[self].WriteTracked(ctx, RegContents{K: k, Sets: cloneSets(sets)})
		if err != nil {
			return
		}
		e.metrics.Inc("writes")
		// Line 9: Ei := Ei ∪ {Pi(k)}.
		sets = append(sets, participants)
		// Line 10: Fi := Pi(k−1).
		trusted := prev.Clone()

		// Lines 11-16: read every register and select one live member of
		// every participant set it contains.
		for j := 0; j < e.ep.N(); j++ {
			contents, err := e.regs[j].Read(ctx)
			if err != nil {
				return
			}
			for _, x := range contents.Sets {
				pt, ok := e.selectFrom(ctx, task, x, &token, pongs)
				if !ok {
					return
				}
				trusted.Add(pt)
			}
		}

		// Line 17: publish the new Σ-output.
		e.mu.Lock()
		e.output = trusted
		e.rounds = k
		e.mu.Unlock()
		if e.hist != nil {
			e.hist.Record(e.ep.ID(), e.ep.Clock().Now(), trusted.Clone())
		}
		e.metrics.Inc("rounds")

		prev = participants

		// Inter-round pause on the network's virtual clock: free in
		// wall-clock terms, ordered against the traffic of the round.
		if e.ep.Sleep(ctx, e.interval) != nil {
			return
		}
	}
}

// selectFrom sends a ping to every member of x and waits for the first pong
// for this token from a member of x (lines 14-16 of Figure 1).
func (e *SigmaExtractor) selectFrom(ctx context.Context, task *net.Task, x model.ProcessSet, token *int64, pongs net.Instance) (model.ProcessID, bool) {
	*token++
	t := *token
	for _, q := range x.Slice() {
		e.ep.Send(q, e.pingInst, "ping", pingMsg{Token: t})
		e.metrics.Inc("pings")
	}
	for {
		msg, ok := pongs.TryRecv()
		if !ok {
			if ctx.Err() != nil || e.ep.Context().Err() != nil {
				return 0, false
			}
			task.Await(ctx)
			continue
		}
		if msg.Type != "pong" {
			continue
		}
		if msg.Payload.(pongMsg).Token != t || !x.Contains(msg.From) {
			continue // stale pong from an earlier token
		}
		return msg.From, true
	}
}

func cloneSets(sets []model.ProcessSet) []model.ProcessSet {
	out := make([]model.ProcessSet, len(sets))
	for i, s := range sets {
		out[i] = s.Clone()
	}
	return out
}

// SigmaExtractionGroup wires the full Figure 1 construction over a network: n
// register groups (one per owner) implemented by the supplied register
// builder, plus one extractor per process.
type SigmaExtractionGroup struct {
	Extractors []*SigmaExtractor
	Histories  []*model.History
	regGroups  []register.Group[RegContents]
}

// Stop stops every extractor and register replica.
func (g *SigmaExtractionGroup) Stop() {
	for _, e := range g.Extractors {
		e.Stop()
	}
	for _, rg := range g.regGroups {
		rg.Stop()
	}
}

// NewSigmaExtractionGroupFromSigmaRegisters builds the construction on top of
// the Σ-based register (the usual instantiation: the register implementation
// is the one that uses the failure detector D = Σ, and the extractor
// re-derives a Σ from it).
func NewSigmaExtractionGroupFromSigmaRegisters(nw *net.Network, instance string, sigma fd.SigmaSource, interval time.Duration) *SigmaExtractionGroup {
	groups := make([]register.Group[RegContents], nw.N())
	for owner := 0; owner < nw.N(); owner++ {
		groups[owner] = register.NewSigmaGroup[RegContents](nw, fmt.Sprintf("x%s.r%d", instance, owner), sigma)
	}
	return newSigmaExtractionGroup(nw, instance, groups, interval)
}

// NewSigmaExtractionGroupFromMajorityRegisters builds the construction on top
// of the majority-based register (valid in majority-correct environments,
// where Σ is extractable "ex nihilo").
func NewSigmaExtractionGroupFromMajorityRegisters(nw *net.Network, instance string, interval time.Duration) *SigmaExtractionGroup {
	groups := make([]register.Group[RegContents], nw.N())
	for owner := 0; owner < nw.N(); owner++ {
		groups[owner] = register.NewMajorityGroup[RegContents](nw, fmt.Sprintf("x%s.r%d", instance, owner))
	}
	return newSigmaExtractionGroup(nw, instance, groups, interval)
}

func newSigmaExtractionGroup(nw *net.Network, instance string, groups []register.Group[RegContents], interval time.Duration) *SigmaExtractionGroup {
	g := &SigmaExtractionGroup{
		Extractors: make([]*SigmaExtractor, nw.N()),
		Histories:  make([]*model.History, nw.N()),
		regGroups:  groups,
	}
	for i := 0; i < nw.N(); i++ {
		regs := make([]*register.Register[RegContents], nw.N())
		for owner := 0; owner < nw.N(); owner++ {
			regs[owner] = groups[owner][i]
		}
		hist := model.NewHistory()
		g.Histories[i] = hist
		g.Extractors[i] = StartSigmaExtractor(SigmaExtractorConfig{
			Endpoint:  nw.Endpoint(model.ProcessID(i)),
			Registers: regs,
			Instance:  instance,
			Interval:  interval,
			History:   hist,
		})
	}
	return g
}

// CombinedHistory merges the per-process Σ-output histories into one, for the
// model.CheckSigma specification checker.
func (g *SigmaExtractionGroup) CombinedHistory() *model.History {
	combined := model.NewHistory()
	for _, h := range g.Histories {
		for _, s := range h.Samples() {
			combined.Record(s.Process, s.Time, s.Value)
		}
	}
	return combined
}

var _ fd.Sigma = (*SigmaExtractor)(nil)
