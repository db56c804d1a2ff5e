// Package serve is the resilient ensemble inference layer: it answers
// prediction requests from a trained ensemble while individual members
// hang, panic, or go unhealthy, preserving at serving time the paper's
// central training-time result — majority-vote ensembles degrade
// gracefully under partial damage (§IV, the Ens resilience curves).
//
// Three robustness layers compose, outermost first:
//
//   - Bounded admission with load shedding. A fixed-capacity admission
//     queue caps concurrent requests; overflow is rejected immediately
//     with ErrOverloaded (the HTTP layer's 429) instead of queueing into
//     unbounded latency. Drain stops admission and waits for in-flight
//     requests, giving the SIGTERM path a cooperative shutdown.
//
//   - Per-member circuit breakers. Every member carries a
//     closed→open→half-open breaker: a run of consecutive failures opens
//     it (the member is skipped, not dispatched), a cooldown later a
//     single half-open probe tests the member, and the probe's outcome
//     closes or re-opens the breaker. A flaky member is isolated after a
//     few requests rather than taxing every vote with its deadline.
//
//   - Degraded quorum voting. The members that survive dispatch — no
//     timeout, no panic, no error, breaker not open — vote by
//     core.TallyVotes exactly as a full ensemble would; the response
//     reports the achieved quorum k/n. Below Options.MinQuorum the
//     request fails fast with a *QuorumError instead of returning a
//     vote too damaged to trust.
//
// All time-dependent behaviour (deadlines, cooldowns) runs on an
// injected chaos.Clock, so every timeout and breaker path is tested
// deterministically with a FakeClock and zero wall-clock sleeps. The
// chaos faultpoint "serve/member" sits inside member dispatch; tests arm
// Delay/Panic/Err actions against it to simulate hung, crashing, and
// broken members.
package serve

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tdfm/internal/chaos"
	"tdfm/internal/core"
	"tdfm/internal/obs"
	"tdfm/internal/tensor"
)

// ErrOverloaded is returned when the admission queue is full; the
// request was rejected immediately (load shedding) and can be retried
// later. The HTTP layer maps it to 429 Too Many Requests.
var ErrOverloaded = errors.New("serve: overloaded, admission queue full")

// ErrDraining is returned for requests arriving after Drain started;
// the server is shutting down cooperatively and admits nothing new.
var ErrDraining = errors.New("serve: draining, not admitting requests")

// ErrNoQuorum is the sentinel under every *QuorumError: fewer members
// than Options.MinQuorum survived dispatch, so the vote was refused.
// Match with errors.Is.
var ErrNoQuorum = errors.New("serve: below minimum quorum")

// QuorumError is the typed minimum-quorum failure: it reports how many
// members survived against the floor and the ensemble size, and unwraps
// to ErrNoQuorum.
type QuorumError struct {
	// Got is the number of members that produced a usable prediction.
	Got int
	// Need is the configured minimum quorum.
	Need int
	// Members is the ensemble size.
	Members int
}

// Error implements error.
func (e *QuorumError) Error() string {
	return fmt.Sprintf("serve: quorum %d/%d below minimum %d", e.Got, e.Members, e.Need)
}

// Unwrap ties the typed error to the ErrNoQuorum sentinel.
func (e *QuorumError) Unwrap() error { return ErrNoQuorum }

// Member is one named ensemble member the server dispatches to.
type Member struct {
	// Name identifies the member in responses, events, breaker state,
	// and chaos labels (usually the architecture name).
	Name string
	// Clf is the member's trained classifier.
	Clf core.Classifier
}

// Split adapts a trained classifier to the server's member list: a
// *core.VotingClassifier contributes one Member per ensemble member (so
// the server can dispatch, deadline, and break them independently), any
// other classifier becomes a single member. Names are taken from names
// by position; missing entries fall back to "member-<i>".
func Split(clf core.Classifier, names []string) []Member {
	name := func(i int) string {
		if i < len(names) && names[i] != "" {
			return names[i]
		}
		return fmt.Sprintf("member-%d", i)
	}
	if v, ok := clf.(*core.VotingClassifier); ok {
		members := make([]Member, len(v.Members))
		for i, m := range v.Members {
			members[i] = Member{Name: name(i), Clf: m}
		}
		return members
	}
	return []Member{{Name: name(0), Clf: clf}}
}

// Options configures a Server. The zero value of every field has a
// usable default, resolved by New.
type Options struct {
	// MemberDeadline bounds each member's prediction per request;
	// members that miss it are dropped from the vote. Default 2s.
	MemberDeadline time.Duration
	// MinQuorum is the fewest surviving members a vote may be built
	// from; below it the request fails with a *QuorumError. Default: a
	// strict majority of the ensemble (n/2 + 1).
	MinQuorum int
	// QueueCapacity bounds concurrently admitted requests; requests
	// beyond it are shed with ErrOverloaded. Default 64.
	QueueCapacity int
	// BreakerThreshold is the consecutive-failure count that opens a
	// member's circuit breaker. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before allowing
	// a half-open probe. Default 10s.
	BreakerCooldown time.Duration
	// Input is the expected per-sample shape (channels, height, width),
	// used by the HTTP handler to validate and shape request payloads.
	Input [3]int
	// Model identifies the registry artifact the members came from:
	// /healthz reports it, swap events stamp it, and the retiring
	// version's pool-stats snapshot is tagged with its label. The zero
	// value (a server trained in-process, not registry-backed) is fine.
	Model ModelInfo
	// Clock supplies deadlines and cooldowns; tests inject a
	// chaos.FakeClock. Default chaos.Wall().
	Clock chaos.Clock
	// Sink receives obs events (admission, shedding, member failures,
	// breaker transitions). Nil means no events.
	Sink obs.Sink
}

// withDefaults resolves zero fields; n is the ensemble size.
func (o Options) withDefaults(n int) Options {
	if o.MemberDeadline <= 0 {
		o.MemberDeadline = 2 * time.Second
	}
	if o.MinQuorum <= 0 {
		o.MinQuorum = n/2 + 1
	}
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = 64
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 10 * time.Second
	}
	if o.Clock == nil {
		o.Clock = chaos.Wall()
	}
	return o
}

// MemberStatus classifies one member's fate within one request.
type MemberStatus int

// Member fates, in the order they are decided.
const (
	// StatusOK: the member answered within its deadline and voted.
	StatusOK MemberStatus = iota
	// StatusTimeout: the member missed its deadline and was dropped.
	StatusTimeout
	// StatusPanic: the member's dispatch panicked (recovered and dropped).
	StatusPanic
	// StatusError: the member's dispatch returned an error.
	StatusError
	// StatusOpen: the member's breaker was open; it was not dispatched.
	StatusOpen
)

// String returns the wire name used in responses and logs.
func (s MemberStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusTimeout:
		return "timeout"
	case StatusPanic:
		return "panic"
	case StatusError:
		return "error"
	case StatusOpen:
		return "open"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// MemberReport is one member's fate within one request's Result.
type MemberReport struct {
	// Name is the member's configured name.
	Name string
	// Status is what happened to the member this request.
	Status MemberStatus
}

// Result is a successful prediction from a (possibly degraded) quorum.
type Result struct {
	// Pred is the majority-vote class per input row, over the surviving
	// members only.
	Pred []int
	// Probs is the mean probability tensor [N, K] over the surviving
	// members.
	Probs *tensor.Tensor
	// Quorum is the number of members whose predictions formed the vote.
	Quorum int
	// Members is the ensemble size (the n of "quorum k/n").
	Members int
	// Reports lists every member's fate, in member order.
	Reports []MemberReport
}

// Server dispatches prediction requests across ensemble members with
// per-member deadlines, circuit breakers, and bounded admission. Methods
// are safe for concurrent use.
type Server struct {
	members  []Member
	classes  int
	opts     Options
	breakers []*breaker
	// memberMu serializes inference on each member: a network's forward
	// pass reuses per-layer buffers, so one member must never run two
	// predictions at once. A hung member therefore also blocks later
	// dispatches to it — which is exactly what its breaker is for.
	memberMu []sync.Mutex

	slots chan struct{} // admission queue: one token per admitted request
	seq   atomic.Uint64 // request ID counter

	mu       sync.Mutex // guards draining against in-flight accounting
	draining bool
	inflight sync.WaitGroup
}

// New builds a Server over the given members. classes is the label-space
// size shared by all members.
func New(members []Member, classes int, opts Options) (*Server, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("serve: no ensemble members")
	}
	if classes < 2 {
		return nil, fmt.Errorf("serve: need at least 2 classes, got %d", classes)
	}
	opts = opts.withDefaults(len(members))
	if opts.MinQuorum > len(members) {
		return nil, fmt.Errorf("serve: minimum quorum %d exceeds ensemble size %d",
			opts.MinQuorum, len(members))
	}
	s := &Server{
		members:  members,
		classes:  classes,
		opts:     opts,
		breakers: make([]*breaker, len(members)),
		memberMu: make([]sync.Mutex, len(members)),
		slots:    make(chan struct{}, opts.QueueCapacity),
	}
	for i := range s.breakers {
		s.breakers[i] = newBreaker(opts.Clock, opts.BreakerThreshold, opts.BreakerCooldown)
	}
	return s, nil
}

// Options returns the server's resolved options (defaults applied).
func (s *Server) Options() Options { return s.opts }

// MemberNames returns the configured member names in member order.
func (s *Server) MemberNames() []string {
	names := make([]string, len(s.members))
	for i, m := range s.members {
		names[i] = m.Name
	}
	return names
}

// BreakerStates returns every member's current breaker state, in member
// order. Reading the state does not advance the open→half-open
// transition; it reports open until a request actually probes.
func (s *Server) BreakerStates() []BreakerState {
	states := make([]BreakerState, len(s.breakers))
	for i, b := range s.breakers {
		states[i] = b.state()
	}
	return states
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops admitting requests (new calls to Predict fail with
// ErrDraining) and blocks until every in-flight request has finished:
// the cooperative half of SIGTERM shutdown. Drain is idempotent and
// safe to call concurrently.
func (s *Server) Drain() {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	s.mu.Unlock()
	s.inflight.Wait()
	if first {
		// One drain-time snapshot of the arenas' reuse counters: at
		// shutdown operators read it to confirm reuse is paying off, and
		// on every hot-swap (Hot.Swap drains the retiring generation) the
		// snapshot is tagged with the retiring model version so arena leaks
		// across swaps are observable per version, not just at exit.
		s.emit(obs.Event{Kind: obs.KindPoolStats, Key: s.opts.Model.Label(),
			Detail: tensor.Stats().String()})
	}
}

// Predict answers one inference request for a batch x of shape
// [N, C, H, W]. It admits the request through the bounded queue
// (ErrOverloaded when full, ErrDraining during shutdown), dispatches
// every member whose breaker allows it under the per-member deadline,
// and returns the degraded-quorum vote, or a *QuorumError when fewer
// than MinQuorum members survive.
func (s *Server) Predict(x *tensor.Tensor) (*Result, error) {
	// The request key only feeds obs events and chaos labels; formatting
	// it is measurable on the hot path, so an unobserved server (no sink,
	// no armed faultpoints) skips it entirely.
	var reqID string
	if s.opts.Sink != nil || chaos.Armed() {
		reqID = reqKey("req-", s.seq.Add(1))
	} else {
		s.seq.Add(1)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.mu.Unlock()
		s.emit(obs.Event{Kind: obs.KindReqShed, Key: reqID})
		return nil, ErrOverloaded
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer func() {
		<-s.slots
		s.inflight.Done()
	}()

	s.emit(obs.Event{Kind: obs.KindReqAdmit, Key: reqID})
	res, err := s.dispatch(reqID, x)
	if s.opts.Sink != nil {
		done := obs.Event{Kind: obs.KindReqDone, Key: reqID, Err: err}
		if res != nil {
			done.Detail = fmt.Sprintf("%d/%d", res.Quorum, res.Members)
		} else if qe := (*QuorumError)(nil); errors.As(err, &qe) {
			done.Detail = fmt.Sprintf("%d/%d", qe.Got, qe.Members)
		}
		s.emit(done)
	}
	return res, err
}

// reqKey formats "<prefix>NNNNNN" (six digits, zero-padded) without fmt:
// key formatting sits on the per-request hot path when observed.
func reqKey(prefix string, n uint64) string {
	var buf [20]byte
	b := strconv.AppendUint(buf[:0], n, 10)
	pad := ""
	if len(b) < 6 {
		pad = "000000"[:6-len(b)]
	}
	return prefix + pad + string(b)
}

// emit forwards an event to the configured sink, if any.
func (s *Server) emit(e obs.Event) {
	if s.opts.Sink != nil {
		s.opts.Sink.Emit(e)
	}
}
