package sim

import (
	"weakestfd/internal/model"
)

// This file contains step-model algorithms ("automata") used by the
// extraction constructions and by the simulation-based model-checking tests:
//
//   - ConsensusAutomaton: single-decree ballot consensus driven by (Ω, Σ)
//     failure-detector values — the step-model counterpart of
//     internal/consensus.BallotConsensus.
//   - QCAutomaton: quittable consensus driven by Ψ values (Figure 2 in the
//     step model); it embeds ConsensusAutomaton for the (Ω, Σ) branch.
//
// Both treat their states as immutable: every Step works on a copy.

// Ballot numbers for the step-model consensus.
type Ballot int64

// Message types used by the consensus automaton.
const (
	simPrepare  = "sim.prepare"
	simPromise  = "sim.promise"
	simAccept   = "sim.accept"
	simAccepted = "sim.accepted"
	simNack     = "sim.nack"
	simDecide   = "sim.decide"
)

type simPrepareMsg struct{ Ballot Ballot }

type simPromiseMsg struct {
	Ballot      Ballot
	Accepted    Ballot
	AcceptedVal any
	HasAccepted bool
}

type simAcceptMsg struct {
	Ballot Ballot
	Val    any
}

type simAcceptedMsg struct{ Ballot Ballot }

type simNackMsg struct {
	Ballot Ballot
	Higher Ballot
}

type simDecideMsg struct{ Val any }

// consState is the per-process state of the consensus automaton.
type consState struct {
	proposal any

	// Acceptor role.
	promised    Ballot
	accepted    Ballot
	acceptedVal any
	hasAccepted bool

	// Proposer role.
	ballot    Ballot
	phase     int // 0 idle, 1 awaiting promises, 2 awaiting accepteds
	acks      model.ProcessSet
	bestBal   Ballot
	bestVal   any
	hasBest   bool
	chosenVal any
	maxSeen   Ballot

	decided  bool
	decision any
	relayed  bool
}

// ConsensusAutomaton is a single-decree ballot consensus in the step model.
// The failure-detector value of every step must be a model.OmegaSigmaValue;
// the process trusted by the Ω component drives ballots, and quorum waits
// complete when the Σ component's quorum is covered by acknowledgements.
type ConsensusAutomaton struct{}

// InitialState implements Automaton.
func (ConsensusAutomaton) InitialState(_ model.ProcessID, _ int, input any) State {
	return consState{
		proposal: input,
		promised: -1,
		accepted: -1,
		bestBal:  -1,
		maxSeen:  -1,
		acks:     model.NewProcessSet(),
	}
}

// Output implements Automaton.
func (ConsensusAutomaton) Output(state State) (any, bool) {
	s := state.(consState)
	if s.decided {
		return s.decision, true
	}
	return nil, false
}

// Step implements Automaton.
func (a ConsensusAutomaton) Step(ctx StepContext, state State, msg *Message, fdValue any) (State, []Message) {
	s := state.(consState)
	os, _ := fdValue.(model.OmegaSigmaValue)
	return a.step(ctx, s, msg, os)
}

func (ConsensusAutomaton) step(ctx StepContext, s consState, msg *Message, os model.OmegaSigmaValue) (consState, []Message) {
	var out []Message

	broadcast := func(typ string, payload any) {
		for i := 0; i < ctx.N; i++ {
			out = append(out, Message{From: ctx.Self, To: model.ProcessID(i), Type: typ, Payload: payload})
		}
	}
	send := func(to model.ProcessID, typ string, payload any) {
		out = append(out, Message{From: ctx.Self, To: to, Type: typ, Payload: payload})
	}

	// 1. Handle the delivered message, if any.
	if msg != nil {
		switch msg.Type {
		case simPrepare:
			m := msg.Payload.(simPrepareMsg)
			if m.Ballot > s.maxSeen {
				s.maxSeen = m.Ballot
			}
			if m.Ballot >= s.promised {
				s.promised = m.Ballot
				send(msg.From, simPromise, simPromiseMsg{Ballot: m.Ballot, Accepted: s.accepted, AcceptedVal: s.acceptedVal, HasAccepted: s.hasAccepted})
			} else {
				send(msg.From, simNack, simNackMsg{Ballot: m.Ballot, Higher: s.promised})
			}
		case simAccept:
			m := msg.Payload.(simAcceptMsg)
			if m.Ballot > s.maxSeen {
				s.maxSeen = m.Ballot
			}
			if m.Ballot >= s.promised {
				s.promised = m.Ballot
				s.accepted = m.Ballot
				s.acceptedVal = m.Val
				s.hasAccepted = true
				send(msg.From, simAccepted, simAcceptedMsg{Ballot: m.Ballot})
			} else {
				send(msg.From, simNack, simNackMsg{Ballot: m.Ballot, Higher: s.promised})
			}
		case simPromise:
			m := msg.Payload.(simPromiseMsg)
			if s.phase == 1 && s.ballot == m.Ballot {
				s.acks.Add(msg.From)
				if m.HasAccepted && m.Accepted > s.bestBal {
					s.bestBal = m.Accepted
					s.bestVal = m.AcceptedVal
					s.hasBest = true
				}
			}
		case simAccepted:
			m := msg.Payload.(simAcceptedMsg)
			if s.phase == 2 && s.ballot == m.Ballot {
				s.acks.Add(msg.From)
			}
		case simNack:
			m := msg.Payload.(simNackMsg)
			if m.Higher > s.maxSeen {
				s.maxSeen = m.Higher
			}
			if s.phase != 0 && s.ballot == m.Ballot {
				s.phase = 0
				s.acks = model.NewProcessSet()
			}
		case simDecide:
			m := msg.Payload.(simDecideMsg)
			if !s.decided {
				s.decided = true
				s.decision = m.Val
			}
		}
	}

	if s.decided {
		if !s.relayed {
			s.relayed = true
			broadcast(simDecide, simDecideMsg{Val: s.decision})
		}
		return s, out
	}

	// 2. Quorum checks with the current Σ output.
	if s.phase == 1 && os.Quorum.SubsetOf(s.acks) && !os.Quorum.IsEmpty() {
		value := s.proposal
		if s.hasBest {
			value = s.bestVal
		}
		s.chosenVal = value
		s.phase = 2
		s.acks = model.NewProcessSet()
		broadcast(simAccept, simAcceptMsg{Ballot: s.ballot, Val: value})
	} else if s.phase == 2 && os.Quorum.SubsetOf(s.acks) && !os.Quorum.IsEmpty() {
		s.decided = true
		s.decision = s.chosenVal
		s.relayed = true
		broadcast(simDecide, simDecideMsg{Val: s.decision})
		return s, out
	}

	// 3. Leader-driven ballot start.
	if s.phase == 0 && os.Leader == ctx.Self {
		n := Ballot(ctx.N)
		id := Ballot(ctx.Self)
		round := s.maxSeen/n + 1
		b := round*n + id
		if b <= s.maxSeen {
			b += n
		}
		s.maxSeen = b
		s.ballot = b
		s.phase = 1
		s.acks = model.NewProcessSet()
		s.bestBal = -1
		s.hasBest = false
		broadcast(simPrepare, simPrepareMsg{Ballot: b})
	}

	return s, out
}

// QCOutcome is the output of the QC automaton: Quit, or a regular value.
type QCOutcome struct {
	Quit  bool
	Value any
}

// qcState is the per-process state of the QC automaton.
type qcState struct {
	proposal any
	quit     bool
	started  bool
	inner    consState
}

// QCAutomaton is Figure 2 in the step model: quittable consensus from Ψ. The
// failure-detector value of every step must be a model.PsiValue. While Ψ is
// ⊥ the process takes nop steps; if Ψ behaves like FS the process decides
// Quit; once Ψ behaves like (Ω, Σ) the process runs the embedded consensus
// automaton on its proposal.
type QCAutomaton struct {
	cons ConsensusAutomaton
}

// InitialState implements Automaton.
func (q QCAutomaton) InitialState(p model.ProcessID, n int, input any) State {
	return qcState{
		proposal: input,
		inner:    q.cons.InitialState(p, n, input).(consState),
	}
}

// Output implements Automaton.
func (q QCAutomaton) Output(state State) (any, bool) {
	s := state.(qcState)
	if s.quit {
		return QCOutcome{Quit: true}, true
	}
	if v, ok := q.cons.Output(s.inner); ok {
		return QCOutcome{Value: v}, true
	}
	return nil, false
}

// Step implements Automaton.
func (q QCAutomaton) Step(ctx StepContext, state State, msg *Message, fdValue any) (State, []Message) {
	s := state.(qcState)
	if s.quit {
		return s, nil
	}
	psi, _ := fdValue.(model.PsiValue)
	switch psi.Phase {
	case model.PsiBottom:
		// Line 1 of Figure 2: nop while Ψ is ⊥. Delivered messages stay
		// conceptually "in flight": the algorithm has not started yet, so we
		// re-enqueue anything delivered early by returning it to the buffer.
		if msg != nil && !s.started {
			return s, []Message{*msg}
		}
		return s, nil
	case model.PsiFS:
		if s.started {
			// The specification of Ψ forbids switching regimes; if it ever
			// happened the safest behaviour is to keep running consensus.
			inner, out := q.cons.step(ctx, s.inner, msg, model.OmegaSigmaValue{})
			s.inner = inner
			return s, out
		}
		s.quit = true
		return s, nil
	default: // model.PsiOmegaSigma
		s.started = true
		inner, out := q.cons.step(ctx, s.inner, msg, psi.OS)
		s.inner = inner
		return s, out
	}
}

var (
	_ Automaton = ConsensusAutomaton{}
	_ Automaton = QCAutomaton{}
)
