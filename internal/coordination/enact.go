package coordination

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/agent"
	"repro/internal/services"
	"repro/internal/workflow"
)

// enactState is the resumable token state of an enactment: the worklist of
// activities holding a token, the per-Join arrival counts, and the
// per-activity visit counts. It is what the checkpoints persist.
type enactState struct {
	Ready   []string       `json:"ready"`
	Arrived map[string]int `json:"arrived"`
	Visits  map[string]int `json:"visits"`
}

// newEnactState places the initial token on Begin.
func newEnactState(pd *workflow.ProcessDescription) *enactState {
	return &enactState{
		Ready:   []string{pd.Begin().ID},
		Arrived: map[string]int{},
		Visits:  make(map[string]int, len(pd.Activities)),
	}
}

// enact runs the ATN token game over the process description from the given
// token state, mutating state, es, and report in place. Flow-control tokens
// fire immediately; end-user tokens that are ready at the same time — the
// branches of a Fork — are dispatched concurrently as one batch, advancing
// the wall clock by the slowest member only. It returns nil on reaching
// End, a *nonExecutableError when re-planning is needed, ctx's error on
// cancellation, or another error on a malformed enactment.
func (c *Coordinator) enact(ctx context.Context, p Policy, report *Report, task *workflow.Task, pd *workflow.ProcessDescription, state *workflow.State, goal workflow.Goal, es *enactState, cc *caseConstraints) error {
	if err := pd.Validate(); err != nil {
		return err
	}
	for len(es.Ready) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		var members [4]pendingExec // wider batches spill to the heap
		batch := members[:0]
		// Drain the current worklist: flow control fires in place (and may
		// enqueue more tokens); end-user activities accumulate into the
		// concurrent batch.
		for len(es.Ready) > 0 {
			if report.Fired >= c.cfg.MaxFires {
				return fmt.Errorf("coordination: task %s exceeded %d activity firings (livelock?)", task.ID, c.cfg.MaxFires)
			}
			// Pop the head in place: the worklist is a handful of tokens, and
			// re-slicing past the head would leak its capacity to every append.
			id := es.Ready[0]
			es.Ready = es.Ready[:copy(es.Ready, es.Ready[1:])]
			act := pd.Activity(id)
			if act == nil {
				return fmt.Errorf("coordination: token at unknown activity %q", id)
			}
			report.Fired++
			c.mFired.Inc()
			es.Visits[id]++
			report.trace("fire", act.Name, act.Kind.String())

			switch act.Kind {
			case workflow.KindBegin, workflow.KindMerge, workflow.KindFork:
				for _, t := range pd.Out(id) {
					es.Ready = append(es.Ready, t.Dest)
				}

			case workflow.KindEnd:
				return nil

			case workflow.KindJoin:
				es.Arrived[id]++
				if es.Arrived[id] < len(pd.In(id)) {
					continue // wait for the remaining predecessors
				}
				es.Arrived[id] = 0
				es.Ready = append(es.Ready, pd.Out(id)[0].Dest)

			case workflow.KindChoice:
				es.Ready = append(es.Ready, c.decide(report, pd, act, state, es.Visits))

			case workflow.KindEndUser:
				batch = append(batch, pendingExec{act: act, visit: es.Visits[id], token: id})
			}
		}

		if len(batch) == 0 {
			break
		}
		if err := c.runBatch(ctx, p, report, batch, state, cc); err != nil {
			if verr := (*ConstraintError)(nil); errors.As(err, &verr) {
				if verr.Reason == ReasonBudgetExceeded {
					c.mBudgetExceeded.Inc()
				}
				report.trace("constraint", "", verr.Detail)
			}
			return err
		}
		if dl := task.Case.Deadline; dl > 0 && report.WallClockTime > dl && !report.DeadlineMissed {
			report.DeadlineMissed = true
			report.trace("deadline", "", fmt.Sprintf("soft deadline %.0fs overrun at %.0fs", dl, report.WallClockTime))
		}
		if cc != nil {
			costP, timeP := cc.observe(report)
			if costP {
				c.mCostPreempts.Inc()
				report.trace("preempt", "", fmt.Sprintf("budget pressure: spent %.2f of %.2f, switching to cheapest candidates", cc.spent, cc.budget))
			}
			if timeP {
				c.mDeadlinePreempts.Inc()
				report.trace("preempt", "", fmt.Sprintf("deadline pressure: %.0fs of %.0fs elapsed, switching to fastest candidates", cc.elapsed, cc.deadline))
			}
			if verr := cc.violation(); verr != nil {
				switch verr.Reason {
				case ReasonBudgetExceeded:
					c.mBudgetExceeded.Inc()
				case ReasonDeadlineMissed:
					c.mDeadlineMissed.Inc()
					report.DeadlineMissed = true
				}
				report.trace("constraint", "", verr.Detail)
				return verr
			}
		}
		for _, b := range batch {
			es.Ready = append(es.Ready, pd.Out(b.token)[0].Dest)
		}
		if c.cfg.Checkpoint {
			c.checkpoint(ctx, report, task, pd, state, goal, es)
		}
	}
	return fmt.Errorf("coordination: task %s: tokens drained before reaching End", task.ID)
}

// decide picks the successor of a Choice activity: conditional transitions
// are evaluated against the case data state in declaration order and the
// first true one wins; otherwise the first unconditional transition is the
// default. The activity's own constraint (e.g. Cons1) is consulted when no
// transition carries a condition: if it evaluates true the first successor
// is taken, otherwise the last. Conditions and constraint are the trees
// Validate parsed; a validated Choice has two successors or more.
func (c *Coordinator) decide(report *Report, pd *workflow.ProcessDescription, act *workflow.Activity, state *workflow.State, visits map[string]int) string {
	outs := pd.Out(act.ID)
	last := outs[len(outs)-1]
	anyConditional := false
	for _, t := range outs {
		if t.CondNode() == nil {
			continue
		}
		anyConditional = true
		if t.CondNode().Eval(state) {
			report.trace("choice", act.Name, "took "+t.ID+" ["+t.Condition+"]")
			return t.Dest
		}
	}
	if anyConditional {
		for _, t := range outs {
			if t.CondNode() == nil {
				report.trace("choice", act.Name, "took default "+t.ID)
				return t.Dest
			}
		}
		// All conditional and none true: the last transition is the
		// fallback (the loop-exit convention of Figure 10).
		report.trace("choice", act.Name, "fell through to "+last.ID)
		return last.Dest
	}
	if constraint := act.ConstraintNode(); constraint != nil {
		if constraint.Eval(state) {
			report.trace("choice", act.Name, "constraint true: took "+outs[0].ID)
			return outs[0].Dest
		}
		report.trace("choice", act.Name, "constraint false: took "+last.ID)
		return last.Dest
	}
	// No conditions anywhere: prefer a successor not yet visited, which
	// exits condition-less loops after a single pass instead of spinning
	// on the back transition forever.
	for _, t := range outs {
		if visits[t.Dest] == 0 {
			report.trace("choice", act.Name, "unconditioned: took "+t.ID)
			return t.Dest
		}
	}
	report.trace("choice", act.Name, "unconditioned: took "+outs[0].ID)
	return outs[0].Dest
}

// execResult is the outcome of one dispatched activity, gathered before its
// effects are applied to the shared case state (dispatches in a concurrent
// batch must not mutate state until every member finished).
type execResult struct {
	act      *workflow.Activity
	visit    int
	duration float64
	cost     float64
	failures int
	retries  int
	faults   int
	backoff  float64 // simulated seconds waited between attempts
	err      error

	// The trace events of the dispatch, in order; buf backs the first few (an
	// undisturbed dispatch records three), so the result must stay in place.
	events []TraceEvent
	buf    [4]TraceEvent
}

// event records one trace event of the dispatch.
func (r *execResult) event(kind, activity, detail string) {
	r.events = append(r.events, TraceEvent{Kind: kind, Activity: activity, Detail: detail})
}

// dispatch runs one end-user activity remotely: it verifies the service's
// preconditions against the (read-only) state, matchmakes candidate
// containers, and tries them best-first with retry-on-alternate-candidate —
// attempt n goes to candidate (n-1) mod len(candidates), so retries rotate
// through the ranking before coming back around — bounded by the policy's
// MaxRetries, backing off (in simulated time) between attempts. For a
// constrained case (cc non-nil) the ranking is cost-aware — cheapest
// candidate that still meets the deadline first — and an activity no
// remaining budget can afford aborts before the first attempt, consuming no
// retry. It fills res and does NOT mutate the state; apply() does that
// afterwards. Safe to call from multiple goroutines over the same state.
func (c *Coordinator) dispatch(ctx context.Context, p Policy, act *workflow.Activity, state *workflow.State, visit int, cc *caseConstraints, res *execResult) {
	res.act, res.visit, res.events = act, visit, res.buf[:0]
	svc := c.cfg.Catalog.Get(act.Service)
	if svc == nil {
		res.err = fmt.Errorf("coordination: activity %s references unknown service %q", act.ID, act.Service)
		return
	}
	if !svc.Applicable(state) {
		res.err = fmt.Errorf("coordination: activity %s preconditions unmet in current state %v", act.Name, state.Names())
		return
	}

	// Input volume drives the communication term of the execution model.
	dataMB := 0.0
	for _, name := range act.Inputs {
		if item := state.Get(name); item != nil {
			if size, ok := item.Prop(workflow.PropSize); ok {
				if n, isNum := size.Num(); isNum {
					dataMB += n / 1e6
				}
			}
		}
	}

	res.event("invoke", act.Name, services.MatchmakingName)
	ranked := c.cfg.Matchmaking.Match(services.MatchRequest{Service: act.Service})
	if len(ranked) == 0 {
		res.err = &nonExecutableError{activity: act.Name, service: act.Service}
		return
	}
	candidates, minCost := c.rank(act, svc, state, ranked, cc)
	if cc != nil && cc.budget > 0 && cc.spent+minCost > cc.budget {
		res.event("constraint", act.Name, fmt.Sprintf("cheapest candidate costs ~%.2f but only %.2f of budget %.2f remains", minCost, cc.budget-cc.spent, cc.budget))
		res.err = &ConstraintError{Reason: ReasonBudgetExceeded,
			Detail: fmt.Sprintf("activity %s: cheapest estimate %.2f exceeds remaining budget %.2f", act.Name, minCost, cc.budget-cc.spent)}
		return
	}

	// Both made on the first failure: most dispatches never see one.
	var rng *rand.Rand
	var failedNodes map[string]bool
	for attempt := 1; attempt <= p.MaxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			res.err = err
			return
		}
		cand := candidates[(attempt-1)%len(candidates)]
		res.event("dispatch", act.Name, cand.Container)
		execReply, err := c.ctx.CallContext(ctx, cand.Container, services.OntExecution, services.ExecuteRequest{
			Service:  act.Service,
			BaseTime: svc.BaseTime,
			DataMB:   dataMB,
		}, services.CallTimeout)
		if err == nil && execReply.Performative != agent.Failure {
			if er, ok := execReply.Content.(services.ExecuteReply); ok {
				res.duration = er.Exec.Duration
				res.cost = er.Exec.Cost
				var buf [64]byte // "on <container> in <d>s"
				detail := append(append(buf[:0], "on "...), cand.Container...)
				detail = strconv.AppendFloat(append(detail, " in "...), er.Exec.Duration, 'f', 1, 64)
				res.event("complete", act.Name, string(append(detail, 's')))
				return
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			res.err = cerr
			return
		}
		res.failures++
		res.event("fail", act.Name, fmt.Sprintf("on %s: %v", cand.Container, err))
		if failedNodes == nil {
			failedNodes = map[string]bool{}
		}
		failedNodes[cand.Node] = true
		c.noteFault(ctx, res, act, cand)
		if attempt == p.MaxRetries {
			break
		}
		// Re-match against the live grid so later attempts stop rotating
		// through a ranking that may hold a node that went down mid-dispatch.
		if fresh := c.cfg.Matchmaking.Match(services.MatchRequest{Service: act.Service}); len(fresh) > 0 {
			candidates, _ = c.rank(act, svc, state, fresh, cc)
		}
		res.retries++
		next := candidates[attempt%len(candidates)]
		if p.BackoffBase > 0 {
			if rng == nil {
				rng = p.retryStream(act.Name, visit)
			}
			wait := p.backoff(attempt, rng)
			if p.ActivityTimeout > 0 && res.backoff+wait > p.ActivityTimeout {
				res.event("retry", act.Name, fmt.Sprintf("abandoned: backoff budget %.0fs exhausted", p.ActivityTimeout))
				break
			}
			res.backoff += wait
			res.event("retry", act.Name, fmt.Sprintf("attempt %d/%d on %s after %.1fs backoff", attempt+1, p.MaxRetries, next.Container, wait))
		} else {
			res.event("retry", act.Name, fmt.Sprintf("attempt %d/%d on %s", attempt+1, p.MaxRetries, next.Container))
		}
	}
	ne := &nonExecutableError{activity: act.Name, service: act.Service, hadCandidates: true}
	for n := range failedNodes {
		ne.nodes = append(ne.nodes, n)
	}
	sort.Strings(ne.nodes)
	res.err = ne
	return
}

// noteFault asks the monitoring service whether the candidate's node went
// down during the failed attempt — the signature of an injected crash — and
// records it as a fault. Best effort; silent without a monitoring service.
func (c *Coordinator) noteFault(ctx context.Context, res *execResult, act *workflow.Activity, cand services.Candidate) {
	if c.ctx == nil || !c.ctx.Platform().Has(services.MonitoringName) {
		return
	}
	reply, err := c.ctx.CallContext(ctx, services.MonitoringName, services.OntMonitoring,
		services.NodeStatusRequest{Node: cand.Node}, services.CallTimeout)
	if err != nil {
		return
	}
	if sr, ok := reply.Content.(services.NodeStatusReply); ok && sr.Known && !sr.Up {
		res.faults++
		res.event("fault", act.Name, fmt.Sprintf("node %s down after failed attempt on %s", cand.Node, cand.Container))
	}
}

// rank orders a service's candidates for dispatch. An unconstrained case
// (cc nil) keeps the matchmaking order with poorly performing nodes demoted;
// a constrained case is ordered by estimated cost and ETA alone — a total
// order, so the incoming order does not matter — and also reports the
// cheapest estimate.
func (c *Coordinator) rank(act *workflow.Activity, svc *workflow.Service, state *workflow.State, cands []services.Candidate, cc *caseConstraints) ([]services.Candidate, float64) {
	if cc == nil {
		return c.reorderByHistory(act.Service, cands), 0
	}
	return c.costRank(act, svc, state, cands, cc)
}

// reorderByHistory consults the brokerage's past-performance data base and
// demotes candidates whose node has a poor execution record for this service
// (success rate below 0.5 over at least three runs). This is the paper's
// "ability to access history information about the past execution of the
// task": resources with a proven record are preferred. Relative order
// within the kept and demoted groups is preserved, and cands — the ranking
// matchmaking shares with every caller — is never written to.
func (c *Coordinator) reorderByHistory(service string, cands []services.Candidate) []services.Candidate {
	if len(cands) < 2 {
		return cands
	}
	bad := func(cand services.Candidate) bool {
		st := c.cfg.Brokerage.Stats(service, cand.Node)
		return st.Runs >= 3 && st.SuccessRate < 0.5
	}
	// Fast path: every node healthy (the overwhelmingly common case) keeps
	// the ranking as-is without allocating.
	first := -1
	for i, cand := range cands {
		if bad(cand) {
			first = i
			break
		}
	}
	if first < 0 {
		return cands
	}
	kept := append(make([]services.Candidate, 0, len(cands)), cands[:first]...)
	demoted := []services.Candidate{cands[first]}
	for _, cand := range cands[first+1:] {
		if bad(cand) {
			demoted = append(demoted, cand)
		} else {
			kept = append(kept, cand)
		}
	}
	return append(kept, demoted...)
}

// apply merges a dispatch into the report and case state: accounting, trace,
// postconditions (with the steering hook), data items. Compute time and cost
// are summed by runBatch, which sees the whole batch.
func (c *Coordinator) apply(report *Report, res *execResult, state *workflow.State) {
	report.Trace = append(report.Trace, res.events...)
	for _, ev := range res.events {
		report.spans.Span(ev.Kind, ev.Activity, ev.Detail)
	}
	report.Failures += res.failures
	c.mFailures.Add(int64(res.failures))
	report.Retries += res.retries
	c.mRetries.Add(int64(res.retries))
	report.Faults += res.faults
	c.mFaults.Add(int64(res.faults))
	if res.backoff > 0 {
		report.BackoffWait += res.backoff
		c.hBackoff.Observe(res.backoff)
	}
	if res.err != nil {
		return
	}
	report.Executed++
	c.mExecuted.Inc()
	svc := c.cfg.Catalog.Get(res.act.Service)
	produced := svc.Produce(res.act.Outputs, report.Executed)
	if c.cfg.PostProcess != nil {
		c.cfg.PostProcess(res.act, produced, res.visit)
	}
	for _, item := range produced {
		state.Put(item)
	}
}

// runBatch dispatches a set of simultaneously ready end-user activities
// concurrently — the Fork semantics of the paper — and applies the results
// in activity order. Wall-clock time advances by the longest member,
// counting its backoff waits (compute time still accumulates every
// execution). Returns the first error, preferring hard errors over
// re-planning signals.
func (c *Coordinator) runBatch(ctx context.Context, p Policy, report *Report, batch []pendingExec, state *workflow.State, cc *caseConstraints) error {
	results := make([]execResult, len(batch))
	if len(batch) == 1 {
		c.dispatch(ctx, p, batch[0].act, state, batch[0].visit, cc, &results[0])
	} else {
		var wg sync.WaitGroup
		for i, b := range batch {
			wg.Add(1)
			go func() { // b by value: the caller's batch stays on its stack
				defer wg.Done()
				c.dispatch(ctx, p, b.act, state, b.visit, cc, &results[i])
			}()
		}
		wg.Wait()
	}
	longest := 0.0
	var dbuf, cbuf [8]float64 // wider batches spill to the heap
	durations, costs := dbuf[:0], cbuf[:0]
	for i := range results {
		c.apply(report, &results[i], state)
		if d := results[i].duration + results[i].backoff; d > longest {
			longest = d
		}
		if results[i].err == nil {
			durations = append(durations, results[i].duration)
			costs = append(costs, results[i].cost)
		}
	}
	// Concurrent members draw their jitter from a node's stream in goroutine
	// arrival order: the seed fixes the multiset of a batch's durations, not
	// which member drew which. Float addition is not associative, so the
	// totals take the batch in ascending order rather than member order.
	slices.Sort(durations)
	slices.Sort(costs)
	for i := range durations {
		report.SimulatedTime += durations[i]
		report.TotalCost += costs[i]
	}
	report.WallClockTime += longest
	c.mBatches.Inc()
	c.hBatchWall.Observe(longest)
	var replanErr error
	for i := range results {
		if err := results[i].err; err != nil {
			if _, isReplan := err.(*nonExecutableError); isReplan {
				if replanErr == nil {
					replanErr = err
				}
				continue
			}
			return err
		}
	}
	if replanErr != nil {
		if err := ctx.Err(); err != nil {
			return err // cancellation beats a re-planning round
		}
	}
	return replanErr
}

// pendingExec is one batch member.
type pendingExec struct {
	act   *workflow.Activity
	visit int
	token string
}
