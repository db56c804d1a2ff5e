package serve

import (
	"tdfm/internal/chaos"
	"tdfm/internal/core"
	"tdfm/internal/obs"
	"tdfm/internal/parallel"
	"tdfm/internal/tensor"
)

// outcome is one member's answer (or failure) for one dispatch.
type outcome struct {
	idx      int
	probs    *tensor.Tensor
	err      error
	panicked bool
}

// dispatch fans a request out to every member whose breaker allows it,
// collects answers until the per-member deadline, and builds the
// degraded-quorum result.
func (s *Server) dispatch(reqID string, x *tensor.Tensor) (*Result, error) {
	return s.vote(s.fanout(reqID, x))
}

// fanout runs one request's rows through every member whose breaker
// allows it, under the per-member deadline, and returns each member's
// probability output ([N, K], nil for members that were skipped, timed
// out, panicked, or errored) alongside the per-member fate reports.
// Breakers are updated and member/breaker events emitted, keyed by the
// request ID.
//
// Determinism: members are dispatched, classified, and tallied in member
// index order, and events are emitted only from this goroutine — so for
// a fixed set of member outcomes the result and the key's event sequence
// are schedule-independent. Which members make the deadline is
// inherently a property of time; tests pin it with a FakeClock.
func (s *Server) fanout(key string, x *tensor.Tensor) ([]*tensor.Tensor, []MemberReport) {
	n := len(s.members)
	results := make(chan outcome, n) // buffered: late members park their answer and exit
	dispatched := make([]bool, n)
	probe := make([]bool, n)
	reports := make([]MemberReport, n)
	count := 0
	for i := range s.members {
		reports[i] = MemberReport{Name: s.members[i].Name, Status: StatusOpen}
		ok, pr, tr := s.breakers[i].allow()
		if tr != nil {
			s.emit(obs.Event{Kind: obs.KindBreakerChange, Key: key,
				Member: s.members[i].Name, Detail: tr.String()})
		}
		if !ok {
			continue
		}
		dispatched[i], probe[i] = true, pr
		count++
		// A hung member must be abandonable at its deadline, so each member
		// runs on its own goroutine that parks its late answer in the
		// buffered channel; parallel.Run cannot serve here because it joins
		// all tasks. Results stay schedule-independent: answers are
		// re-ordered by member index before tallying, and sharing the
		// worker budget is deliberately avoided so a saturated training
		// pool cannot starve serving.
		go s.runMember(key, i, x, results) //tdfm:allow nodeterminism deadline requires abandoning hung members; answers are re-ordered by member index before tallying, so schedule cannot leak into the vote
	}

	received := make([]*outcome, n)
	if count > 0 {
		timer := s.opts.Clock.NewTimer(s.opts.MemberDeadline)
		defer timer.Stop()
		got := 0
	collect:
		for got < count {
			select {
			case o := <-results:
				c := o
				received[o.idx] = &c
				got++
			case <-timer.C():
				// A member finishing at the same instant the deadline
				// fires races this select; prefer answers already parked
				// in the channel over declaring their members late.
				for got < count {
					select {
					case o := <-results:
						c := o
						received[o.idx] = &c
						got++
					default:
						break collect
					}
				}
				break collect
			}
		}
	}

	// Classify fates, update breakers, and emit member events in member
	// index order (never in completion order).
	probs := make([]*tensor.Tensor, n)
	for i := range s.members {
		if !dispatched[i] {
			continue
		}
		o := received[i]
		var tr *transition
		switch {
		case o == nil:
			reports[i].Status = StatusTimeout
			s.emit(obs.Event{Kind: obs.KindMemberTimeout, Key: key, Member: s.members[i].Name,
				Dur: s.opts.MemberDeadline})
			tr = s.breakers[i].record(false, probe[i])
		case o.panicked:
			reports[i].Status = StatusPanic
			s.emit(obs.Event{Kind: obs.KindMemberPanic, Key: key, Member: s.members[i].Name, Err: o.err})
			tr = s.breakers[i].record(false, probe[i])
		case o.err != nil:
			reports[i].Status = StatusError
			s.emit(obs.Event{Kind: obs.KindMemberError, Key: key, Member: s.members[i].Name, Err: o.err})
			tr = s.breakers[i].record(false, probe[i])
		default:
			reports[i].Status = StatusOK
			probs[i] = o.probs
			tr = s.breakers[i].record(true, probe[i])
		}
		if tr != nil {
			s.emit(obs.Event{Kind: obs.KindBreakerChange, Key: key,
				Member: s.members[i].Name, Detail: tr.String()})
		}
	}
	return probs, reports
}

// vote builds the degraded-quorum Result over a fanout's member outputs,
// or a *QuorumError when fewer than MinQuorum members survived. Every
// member's probabilities are row-independent, so each row of a
// multi-row request votes bit-identically to the same row sent alone
// (given the same member fates).
func (s *Server) vote(probs []*tensor.Tensor, reports []MemberReport) (*Result, error) {
	var alive []*tensor.Tensor
	for _, p := range probs {
		if p != nil {
			alive = append(alive, p)
		}
	}
	n := len(s.members)
	if len(alive) < s.opts.MinQuorum {
		return nil, &QuorumError{Got: len(alive), Need: s.opts.MinQuorum, Members: n}
	}
	mean := alive[0].Clone()
	for _, p := range alive[1:] {
		mean.AddIn(p)
	}
	mean.ScaleIn(1 / float64(len(alive)))
	return &Result{
		Pred:    core.TallyVotes(alive, s.classes),
		Probs:   mean,
		Quorum:  len(alive),
		Members: n,
		Reports: reports,
	}, nil
}

// runMember computes one member's probabilities and parks the outcome in
// out (buffered with one slot per member, so a member finishing after
// its deadline exits without blocking). The member mutex is held across
// the send: one prediction per member at a time — forward passes reuse
// layer buffers, and a real replica is single-threaded — and an observer
// that subsequently acquires the mutex is guaranteed the outcome has
// been delivered, which tests use to choreograph deadlines exactly.
func (s *Server) runMember(key string, idx int, x *tensor.Tensor, out chan<- outcome) {
	s.memberMu[idx].Lock()
	defer s.memberMu[idx].Unlock()
	out <- s.memberOutcome(key, idx, x) //tdfm:allow lockdiscipline the channel is buffered one slot per member so this send never blocks; holding memberMu across it is the documented deadline rendezvous
}

// memberOutcome runs one member's inference with panic recovery and the
// "serve/member" chaos faultpoint applied: Delay sleeps on the injected
// clock (a slow or hung member), Panic and Err fail the member.
func (s *Server) memberOutcome(key string, idx int, x *tensor.Tensor) (o outcome) {
	o.idx = idx
	defer func() {
		if v := recover(); v != nil {
			o.probs, o.err, o.panicked = nil, parallel.AsPanicError(v), true
		}
	}()
	// The label concatenation is skipped while the harness is idle: the
	// Armed check is one atomic load, the concat is an allocation per
	// member per request.
	if chaos.Armed() {
		if act := chaos.Check("serve/member", key+"/"+s.members[idx].Name); act != nil {
			act.Wait(s.opts.Clock)
			if act.Panic {
				panic(chaos.ErrInjected)
			}
			if act.Err != nil {
				o.err = act.Err
				return o
			}
		}
	}
	// Error-aware members (remote shards) report transport failures as
	// member errors; plain classifiers keep the panic-recovery path.
	if pe, ok := s.members[idx].Clf.(ProbsErrer); ok {
		o.probs, o.err = pe.PredictProbsErr(x)
		if o.err != nil {
			o.probs = nil
		}
		return o
	}
	o.probs = s.members[idx].Clf.PredictProbs(x)
	return o
}
