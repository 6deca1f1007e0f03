package coordination

import (
	"errors"
	"fmt"

	"repro/internal/services"
	"repro/internal/workflow"
)

// Terminal reasons for constraint-driven aborts. They surface as the task's
// `reason` field in the engine journal and the HTTP task view.
const (
	ReasonBudgetExceeded = "budget_exceeded"
	ReasonDeadlineMissed = "deadline_missed"
)

// ConstraintError aborts an enactment that blew (or provably cannot meet) a
// case budget or hard deadline. It is terminal: unlike *nonExecutableError it
// never triggers re-planning — no alternate plan un-spends money or rewinds
// the clock.
type ConstraintError struct {
	Reason string // ReasonBudgetExceeded or ReasonDeadlineMissed
	Detail string
}

func (e *ConstraintError) Error() string {
	return fmt.Sprintf("coordination: %s: %s", e.Reason, e.Detail)
}

// ConstraintReason extracts the terminal reason from an enactment error, or
// "" when the error is not constraint-driven.
func ConstraintReason(err error) string {
	var ce *ConstraintError
	if errors.As(err, &ce) {
		return ce.Reason
	}
	return ""
}

// caseConstraints is the per-enactment budget/deadline ledger. It mirrors the
// report's spend and wall clock between batches (all access happens on the
// enactment goroutine or under its fork/join happens-before edges, so plain
// fields suffice) and flips pressure flags at 80% consumption, which preempts
// subsequent dispatches onto cheaper/faster candidates.
type caseConstraints struct {
	budget   float64 // 0 = unlimited
	deadline float64 // hard deadline in simulated seconds; 0 = none
	spent    float64 // mirrors report.TotalCost
	elapsed  float64 // mirrors report.WallClockTime

	costPressure bool
	timePressure bool
}

// pressureRatio is the consumed fraction of budget or deadline beyond which
// the scheduler preempts to cheaper (resp. faster) candidates.
const pressureRatio = 0.8

// newCaseConstraints builds the ledger for a constrained case, seeded from
// the report's restored accounting (resume must not re-charge checkpointed
// spend). Returns nil for unconstrained cases — the nil ledger keeps the
// legacy dispatch path byte-for-byte identical.
func newCaseConstraints(cd *workflow.CaseDescription, report *Report) *caseConstraints {
	if cd == nil || !cd.Constrained() {
		return nil
	}
	cc := &caseConstraints{
		budget:  cd.Budget,
		spent:   report.TotalCost,
		elapsed: report.WallClockTime,
	}
	if cd.HardDeadline {
		cc.deadline = cd.Deadline
	}
	return cc
}

// remainingDeadline returns the simulated seconds left before the hard
// deadline, or 0 when the case has none (the scorer's "unconstrained").
func (cc *caseConstraints) remainingDeadline() float64 {
	if cc.deadline <= 0 {
		return 0
	}
	rem := cc.deadline - cc.elapsed
	if rem <= 0 {
		rem = 1e-9 // violation fires right after the batch; stay "constrained"
	}
	return rem
}

// observe refreshes the ledger from the report after a batch and reports
// pressure transitions so the caller can trace/count the preemption once.
func (cc *caseConstraints) observe(report *Report) (newCostPressure, newTimePressure bool) {
	cc.spent = report.TotalCost
	cc.elapsed = report.WallClockTime
	if cc.budget > 0 && !cc.costPressure && cc.spent >= pressureRatio*cc.budget {
		cc.costPressure = true
		newCostPressure = true
	}
	if cc.deadline > 0 && !cc.timePressure && cc.elapsed >= pressureRatio*cc.deadline {
		cc.timePressure = true
		newTimePressure = true
	}
	return
}

// violation returns the terminal constraint error once the budget or the
// hard deadline is actually blown, or nil.
func (cc *caseConstraints) violation() *ConstraintError {
	if cc.budget > 0 && cc.spent > cc.budget {
		return &ConstraintError{Reason: ReasonBudgetExceeded,
			Detail: fmt.Sprintf("spent %.2f of budget %.2f", cc.spent, cc.budget)}
	}
	if cc.deadline > 0 && cc.elapsed > cc.deadline {
		return &ConstraintError{Reason: ReasonDeadlineMissed,
			Detail: fmt.Sprintf("elapsed %.0fs of deadline %.0fs", cc.elapsed, cc.deadline)}
	}
	return nil
}

// dataRefs extracts the Size/Location of an activity's bound inputs for the
// transfer-cost term of candidate scoring.
func dataRefs(act *workflow.Activity, state *workflow.State) []services.DataRef {
	var refs []services.DataRef
	for _, name := range act.Inputs {
		item := state.Get(name)
		if item == nil {
			continue
		}
		ref := services.DataRef{}
		if size, ok := item.Prop(workflow.PropSize); ok {
			if n, isNum := size.Num(); isNum {
				ref.SizeMB = n / 1e6
			}
		}
		if loc, ok := item.Prop(workflow.PropLocation); ok {
			ref.Location = loc.Str()
		}
		if ref.SizeMB > 0 || ref.Location != "" {
			refs = append(refs, ref)
		}
	}
	return refs
}

// costRank re-orders the candidate list for a constrained case: estimated
// ETA (hardware + history + data transfer) and spend per candidate, cheapest
// feasible first — or fastest first under deadline pressure. It also returns
// the cheapest estimated cost so dispatch can detect an infeasible budget
// before consuming any retry.
func (c *Coordinator) costRank(act *workflow.Activity, svc *workflow.Service, state *workflow.State, cands []services.Candidate, cc *caseConstraints) ([]services.Candidate, float64) {
	c.mCostSchedules.Inc()
	history := func(node string) services.PerfStats { return c.cfg.Brokerage.Stats(act.Service, node) }
	scored := services.ScoreCandidates(cands, svc.BaseTime, dataRefs(act, state), history, cc.remainingDeadline())
	ranked := services.RankCostAware(scored, cc.timePressure)
	out := make([]services.Candidate, len(ranked))
	minCost := 0.0
	for i, sc := range ranked {
		out[i] = sc.Candidate
		if i == 0 || sc.EstCost < minCost {
			minCost = sc.EstCost
		}
	}
	return out, minCost
}
