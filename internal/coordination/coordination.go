// Package coordination implements the coordination service: the proxy that
// receives a case description and controls the enactment of the workflow
// (Section 2). The enactor is an abstract ATN machine over the process
// description graph: tokens move along transitions, flow-control activities
// gate them (Fork/Join, Choice/Merge), and end-user activities are
// dispatched to application containers located through the matchmaking
// service. Failures trigger the re-planning interaction of Figure 3;
// progress is checkpointed to the persistent storage service.
package coordination

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"time"

	"repro/internal/agent"
	"repro/internal/pdl"
	"repro/internal/planning"
	"repro/internal/services"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// Config wires a coordinator.
type Config struct {
	Platform *agent.Platform
	// Catalog supplies the service specifications (pre/postconditions,
	// nominal times) for the end-user activities.
	Catalog *workflow.Catalog
	// Matchmaking ranks the containers for each dispatch and Brokerage holds
	// the execution history the ranking is adjusted by; the coordinator asks
	// both by method call, so every placement reads the grid and the ledger
	// as they are.
	Matchmaking *services.Matchmaking
	Brokerage   *services.Brokerage

	// MaxFires bounds total activity firings per enactment (loop safety).
	MaxFires int

	// PostProcess, when set, is invoked after each successful end-user
	// activity with the produced data items and the per-activity visit
	// count; the virus-reconstruction scenario uses it to model resolution
	// refinement (computation steering happens here).
	PostProcess func(act *workflow.Activity, produced []*workflow.DataItem, visit int)

	// Checkpoint enables checkpointing to the storage service after every
	// completed activity.
	Checkpoint bool

	// Telemetry, when set, receives enactment metrics (see OBSERVABILITY.md)
	// and per-task span traces. Nil disables instrumentation at a nil-check
	// per record site.
	Telemetry *telemetry.Registry

	// Logger receives structured enactment logs (task outcomes, re-plans,
	// quarantines); nil means silent.
	Logger *slog.Logger

	// OnCheckpoint, when set, is invoked after every checkpoint successfully
	// written to the storage service, with the task ID and the stored
	// version. Tests use it to stop an enactment at a known checkpoint.
	OnCheckpoint func(taskID string, version int)
}

// TraceEvent records one step of an enactment for inspection.
type TraceEvent struct {
	Kind     string // "fire", "invoke", "dispatch", "complete", "fail", "replan", "choice", "checkpoint", ...
	Activity string
	Detail   string
}

// Report summarizes a finished enactment.
type Report struct {
	TaskID      string
	Completed   bool
	GoalFitness float64
	Fired       int
	Executed    int // end-user activity executions
	Failures    int
	Retries     int // failed attempts that were retried (possibly elsewhere)
	Faults      int // failures where the node was found down afterwards
	Replans     int
	// BackoffWait is the total simulated seconds spent backing off between
	// retry attempts; it counts toward WallClockTime.
	BackoffWait float64
	// Cancelled is set when the enactment was aborted by context
	// cancellation or a policy deadline.
	Cancelled bool
	// Policy is the resolved fault-tolerance policy the enactment ran under.
	Policy        Policy
	SimulatedTime float64 // accumulated compute seconds across all executions
	WallClockTime float64 // simulated elapsed time; concurrent branches overlap
	// DeadlineMissed is set when the case carries a soft deadline and the
	// wall clock overran it (the enactment still runs to completion).
	DeadlineMissed bool
	TotalCost      float64
	FinalState     *workflow.State
	Trace          []TraceEvent

	// spans mirrors Trace into the telemetry task trace when telemetry is
	// wired; nil otherwise (TaskTrace methods are nil-safe).
	spans *telemetry.TaskTrace
	// span is the enclosing enact span extracted from the run context; plan
	// requests carry it to the planning service so the plan span parents
	// under it.
	span telemetry.SpanContext
}

// Coordinator enacts tasks. Register its agent with Register, or call
// RunTask directly from scenario code.
type Coordinator struct {
	cfg Config
	ctx *agent.Context
	log *slog.Logger

	// Instruments are resolved once here so the enactment hot path pays one
	// atomic op per record, not a registry lookup. All are nil (no-ops) when
	// cfg.Telemetry is nil.
	mFired, mExecuted, mFailures, mReplans  *telemetry.Counter
	mTasksCompleted, mTasksFailed, mBatches *telemetry.Counter
	mCheckpoints                            *telemetry.Counter
	mRetries, mFaults, mFaultReplans        *telemetry.Counter
	mCancelled                              *telemetry.Counter
	mCostSchedules, mCostPreempts           *telemetry.Counter
	mBudgetExceeded, mDeadlinePreempts      *telemetry.Counter
	mDeadlineMissed                         *telemetry.Counter
	hBatchWall, hEnactReal, hCkptBytes      *telemetry.Histogram
	hBackoff                                *telemetry.Histogram
}

// maxReplans bounds re-planning rounds per task.
const maxReplans = 3

// New builds a coordinator and registers its agent (services.CoordinationName).
func New(cfg Config) (*Coordinator, error) {
	if cfg.Platform == nil || cfg.Catalog == nil || cfg.Matchmaking == nil || cfg.Brokerage == nil {
		return nil, fmt.Errorf("coordination: platform, catalog, matchmaking and brokerage are required")
	}
	if cfg.MaxFires <= 0 {
		cfg.MaxFires = 1000
	}
	c := &Coordinator{cfg: cfg, log: cfg.Logger}
	if c.log == nil {
		c.log = telemetry.NopLogger()
	}
	if tel := cfg.Telemetry; tel != nil {
		c.mFired = tel.Counter("coordination.activities.fired")
		c.mExecuted = tel.Counter("coordination.activities.executed")
		c.mFailures = tel.Counter("coordination.dispatch.failures")
		c.mReplans = tel.Counter("coordination.replans")
		c.mTasksCompleted = tel.Counter("coordination.tasks.completed")
		c.mTasksFailed = tel.Counter("coordination.tasks.failed")
		c.mBatches = tel.Counter("coordination.batches")
		c.mCheckpoints = tel.Counter("coordination.checkpoints.written")
		c.mRetries = tel.Counter("coordination.retries")
		c.mFaults = tel.Counter("coordination.dispatch.faults")
		c.mFaultReplans = tel.Counter("coordination.replans.fault")
		c.mCancelled = tel.Counter("coordination.tasks.cancelled")
		c.mCostSchedules = tel.Counter("scheduler.cost.schedules")
		c.mCostPreempts = tel.Counter("scheduler.cost.preemptions")
		c.mBudgetExceeded = tel.Counter("scheduler.cost.budget_exceeded")
		c.mDeadlinePreempts = tel.Counter("scheduler.deadline.preemptions")
		c.mDeadlineMissed = tel.Counter("scheduler.deadline.missed")
		c.hBackoff = tel.Histogram("coordination.backoff.simulated.seconds", []float64{1, 5, 30, 120, 300, 600})
		c.hBatchWall = tel.Histogram("coordination.batch.simulated.seconds", []float64{1, 10, 60, 300, 1800, 3600, 10800})
		c.hEnactReal = tel.Histogram("coordination.enact.real.seconds", []float64{0.001, 0.01, 0.1, 1, 10, 60})
		c.hCkptBytes = tel.Histogram("coordination.checkpoint.bytes", []float64{1024, 4096, 16384, 65536, 262144})
	}
	ctx, err := cfg.Platform.Register(services.CoordinationName, agent.HandlerFunc(c.handle))
	if err != nil {
		return nil, err
	}
	c.ctx = ctx
	return c, nil
}

// logger tolerates coordinators assembled as struct literals (tests do):
// a nil log falls back to the shared no-op logger.
func (c *Coordinator) logger() *slog.Logger {
	if c.log == nil {
		return telemetry.NopLogger()
	}
	return c.log
}

// TaskRequest asks the coordination service to enact a task.
type TaskRequest struct{ Task *workflow.Task }

// handle serves task requests sent as messages.
func (c *Coordinator) handle(ctx *agent.Context, msg agent.Message) {
	req, ok := msg.Content.(TaskRequest)
	if !ok {
		_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("coordination: unsupported content %T", msg.Content))
		return
	}
	report, err := c.RunTaskContext(context.Background(), req.Task, nil)
	if err != nil {
		_ = ctx.Reply(msg, agent.Failure, err)
		return
	}
	_ = ctx.Reply(msg, agent.Inform, report)
}

// RunTaskContext enacts the task: if it needs planning, the planning service
// is asked for a process description first (Figure 2); then the case is
// enacted under the resolved policy, re-planning on failures (Figure 3),
// until the goal is met, the budgets are exhausted, or ctx is cancelled. A
// nil ctx behaves like context.Background(); a nil pol means defaults.
func (c *Coordinator) RunTaskContext(ctx context.Context, task *workflow.Task, pol *Policy) (*Report, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	return c.run(ctx, task, pol, nil)
}

// run is the one tail behind RunTaskContext (snap nil: fresh data state,
// token on Begin) and ResumeContext (snap set: data state, token positions
// and accounting restored from the checkpoint).
func (c *Coordinator) run(ctx context.Context, task *workflow.Task, pol *Policy, snap *CheckpointData) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p := c.ResolvePolicy(pol)
	if p.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Deadline)
		defer cancel()
	}
	report := &Report{
		TaskID: task.ID, Policy: p,
		spans: c.cfg.Telemetry.TaskTrace(task.ID),
		span:  telemetry.SpanFromContext(ctx),
	}
	start := time.Now()
	defer func() {
		c.hEnactReal.Observe(time.Since(start).Seconds())
		outcome := "failed"
		switch {
		case report.Cancelled:
			c.mCancelled.Inc()
			outcome = "cancelled"
		case report.Completed:
			c.mTasksCompleted.Inc()
			outcome = "completed"
		default:
			c.mTasksFailed.Inc()
		}
		c.logger().Info("enactment finished",
			slog.String("task", task.ID), slog.String("outcome", outcome),
			slog.Int("executed", report.Executed), slog.Int("retries", report.Retries),
			slog.Int("replans", report.Replans),
			slog.Float64("wallSec", time.Since(start).Seconds()))
	}()
	var state *workflow.State
	var es *enactState
	if snap != nil {
		report.Executed, report.Fired, report.Replans = snap.Executed, snap.Fired, snap.Replans
		report.Failures, report.Retries, report.Faults = snap.Failures, snap.Retries, snap.Faults
		report.BackoffWait = snap.BackoffWait
		report.SimulatedTime, report.WallClockTime, report.TotalCost = snap.Time, snap.Wall, snap.Cost
		report.trace("resume", "", fmt.Sprintf("from checkpoint after %d executions", snap.Executed))
		state, es = snap.RestoreState(), snap.Tokens.clone()
	} else {
		state = task.Case.InitialState()
	}
	goal := task.Case.Goal
	// The ledger seeds from the report, so on resume checkpointed spend and
	// wall clock are not charged a second time after a crash.
	cc := newCaseConstraints(task.Case, report)

	pd := task.Process
	if pd == nil {
		newPD, err := c.requestPlan(ctx, report, state, goal, nil, false, nil, cc)
		if err != nil {
			return nil, err
		}
		pd = newPD
	}
	// The Fig-10 enactment records 91 events over 13 activities, its loop
	// running three times: 8 per activity seldom regrows.
	report.Trace = slices.Grow(report.Trace, 8*len(pd.Activities))
	if es == nil {
		es = newEnactState(pd)
	}

	if err := c.enactWithReplanning(ctx, p, report, task, pd, state, goal, es, cc); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			report.Cancelled = true
			report.trace("cancel", "", err.Error())
		}
		return report, err
	}

	report.GoalFitness = goal.Fitness(state)
	report.Completed = report.GoalFitness >= 1
	report.FinalState = state
	return report, nil
}

// enactWithReplanning drives the enact/re-plan cycle of Figure 3 from an
// initial token state (fresh for RunTaskContext, restored for resume):
// each *nonExecutableError triggers a re-planning round excluding every
// service that failed so far; when the failure was fault-driven (retries
// exhausted on known nodes) those nodes are quarantined first so the new
// plan routes around them.
func (c *Coordinator) enactWithReplanning(ctx context.Context, p Policy, report *Report, task *workflow.Task, pd *workflow.ProcessDescription, state *workflow.State, goal workflow.Goal, es *enactState, cc *caseConstraints) error {
	// failedServices accumulates every service declared non-executable so
	// later re-planning rounds exclude all of them, not just the latest.
	failedServices := map[string]bool{}
	for {
		err := c.enact(ctx, p, report, task, pd, state, goal, es, cc)
		if err == nil {
			return nil
		}
		ne, isReplan := err.(*nonExecutableError)
		if !isReplan {
			return err
		}
		if report.Replans >= maxReplans {
			return fmt.Errorf("coordination: task %s: re-planning budget exhausted after %q failed", task.ID, ne.service)
		}
		report.Replans++
		c.mReplans.Inc()
		if len(ne.nodes) > 0 {
			c.mFaultReplans.Inc()
			c.quarantine(ctx, report, ne)
		}
		failedServices[ne.service] = true
		report.trace("replan", ne.service, fmt.Sprintf("activity %s not executable", ne.activity))
		c.logger().Warn("re-planning after non-executable activity",
			slog.String("task", task.ID), slog.String("service", ne.service),
			slog.String("activity", ne.activity), slog.Int("replans", report.Replans))
		var exclude []string
		for name := range failedServices {
			exclude = append(exclude, name)
		}
		sort.Strings(exclude)
		// When providers existed but every execution attempt failed, an
		// availability probe would still report the service as executable;
		// the coordination service passes its first-hand knowledge directly
		// (the paper's "first method"). When no provider was found at all,
		// the planning service verifies through brokerage and containers
		// (Figure 3, the "second method").
		// The failed plan rides along so planning can re-plan incrementally:
		// the new population starts in the failed plan's neighborhood
		// instead of ramped-random from scratch.
		newPD, perr := c.requestPlan(ctx, report, state, goal, exclude, ne.hadCandidates, pd, cc)
		if perr != nil {
			return perr
		}
		pd = newPD
		es = newEnactState(pd)
	}
}

// quarantine asks the monitoring service to take the failed nodes out of
// rotation before re-planning. Best effort: without a monitoring service the
// re-plan still excludes the failed service itself.
func (c *Coordinator) quarantine(ctx context.Context, report *Report, ne *nonExecutableError) {
	if c.ctx == nil || !c.ctx.Platform().Has(services.MonitoringName) {
		return
	}
	reason := fmt.Sprintf("retries exhausted for %s (activity %s)", ne.service, ne.activity)
	for _, node := range ne.nodes {
		_, err := c.ctx.CallContext(ctx, services.MonitoringName, services.OntMonitoring,
			services.QuarantineRequest{Node: node, Reason: reason}, services.CallTimeout)
		if err != nil {
			report.trace("fault", ne.activity, fmt.Sprintf("quarantine of %s failed: %v", node, err))
			continue
		}
		report.trace("fault", ne.activity, "quarantined node "+node+": "+reason)
		c.logger().Warn("node quarantined",
			slog.String("task", report.TaskID), slog.String("node", node),
			slog.String("reason", reason))
	}
}

// requestPlan performs the Figure 2 interaction with the planning service.
// For constrained cases the remaining budget and deadline ride along so the
// Figure-3 re-plan folds them into the plan fitness (cheap/short plans win).
func (c *Coordinator) requestPlan(ctx context.Context, report *Report, state *workflow.State, goal workflow.Goal, nonExecutable []string, trustCaller bool, failed *workflow.ProcessDescription, cc *caseConstraints) (*workflow.ProcessDescription, error) {
	report.trace("plan-request", "", fmt.Sprintf("non-executable: %v", nonExecutable))
	req := planning.PlanRequest{
		TaskID:        report.TaskID,
		Initial:       state.Items(),
		Goal:          goal.Conditions,
		NonExecutable: nonExecutable,
		TrustCaller:   trustCaller,
		Failed:        failed,
		Traceparent:   report.span.Traceparent(),
	}
	if cc != nil {
		if cc.budget > 0 {
			req.MaxCost = cc.budget - cc.spent
		}
		req.MaxTime = cc.remainingDeadline()
	}
	reply, err := c.ctx.CallContext(ctx, services.PlanningName, services.OntPlanning, req, services.CallTimeout)
	if err != nil {
		return nil, fmt.Errorf("coordination: planning request failed: %w", err)
	}
	pr, ok := reply.Content.(planning.PlanReply)
	if !ok {
		return nil, fmt.Errorf("coordination: unexpected planning reply %T", reply.Content)
	}
	pd, err := pdl.ParseProcess("planned", pr.PDL)
	if err != nil {
		return nil, fmt.Errorf("coordination: planned PDL invalid: %w", err)
	}
	report.trace("plan-received", "", pr.Tree)
	return pd, nil
}

func (r *Report) trace(kind, activity, detail string) {
	r.Trace = append(r.Trace, TraceEvent{Kind: kind, Activity: activity, Detail: detail})
	r.spans.Span(kind, activity, detail)
}

// nonExecutableError signals that an activity could not be executed anywhere
// and re-planning is required.
type nonExecutableError struct {
	activity string
	service  string
	// hadCandidates is true when matchmaking found providers but every
	// execution attempt failed (as opposed to no provider existing).
	hadCandidates bool
	// nodes lists the nodes attempts failed on (sorted); the coordinator
	// quarantines them before re-planning so the new plan routes around the
	// faulty resources.
	nodes []string
}

func (e *nonExecutableError) Error() string {
	return fmt.Sprintf("coordination: activity %s (service %s) not executable", e.activity, e.service)
}
