// Package planning implements the planning service agent of Sections 3.3:
// it accepts planning requests from the coordination service, generates
// process descriptions with the GP planner (package planner), and handles
// re-planning by first checking, through the information service, the
// brokerage service, and the application containers, which activities are
// still executable (the eight-step flow of Figure 3).
package planning

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/planner"
	"repro/internal/plantree"
	"repro/internal/services"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// PlanRequest asks the planning service for a process description
// (Figure 2: "planning task specification").
type PlanRequest struct {
	// TaskID, when set, names the task this plan is for; the planning
	// service then records GP progress spans into the task's telemetry
	// trace.
	TaskID string
	// Initial is the set of initial data available to the end user.
	Initial []*workflow.DataItem
	// Goal is the goal of planning, expressed as conditions on the results.
	Goal []string
	// NonExecutable lists activities (service names) reported by the
	// coordination service as not executable; set on re-planning. The
	// planning service independently verifies executability through the
	// brokerage unless TrustCaller is set (the paper's "first method" of
	// acquiring the knowledge directly from the coordination service).
	NonExecutable []string
	TrustCaller   bool

	// Failed, when set on a re-plan, is the process description whose
	// enactment failed. Planning then runs incrementally: the new
	// population is seeded from the failed plan's neighborhood under the
	// reduced Incremental() budget instead of ramped-random from scratch.
	Failed *workflow.ProcessDescription

	// MaxCost and MaxTime carry the case's remaining budget and deadline
	// into the plan fitness (Figure 3 re-planning with the constraint
	// folded in); 0 means unconstrained. See planner.Params.MaxCost.
	MaxCost float64
	MaxTime float64

	// Traceparent carries the caller's W3C trace context (the task's enact
	// span) so the plan span and its GP generations join the task's
	// distributed trace.
	Traceparent string
}

// PlanReply returns the new plan: the process description compiled, ready to
// enact, and as PDL text, the form HTTP clients and the archive see.
type PlanReply struct {
	// Process is validated and shared (every plan-cache hit hands out the
	// same one): read or clone it, never change it.
	Process  *workflow.ProcessDescription
	PDL      string // Process as PDL text
	Tree     string // plan tree rendering (diagnostic)
	Eval     planner.Evaluation
	Excluded []string // services excluded as non-executable
}

// Service is the planning service agent. It keeps no state between
// requests: a plan depends only on the catalog, the case, the exclusions, the
// failed plan, Params and the seed.
type Service struct {
	Catalog *workflow.Catalog
	Params  planner.Params

	// Telemetry, when set, counts requests and re-plan requests (see
	// OBSERVABILITY.md); the planner's own metrics and GP spans go to the
	// registry Planner was built with.
	Telemetry *telemetry.Registry

	// Planner is the planning backend every request runs through (required;
	// core.NewEnvironment passes the environment-wide one) — the worker pool
	// and plan cache live there.
	Planner *planner.Service

	// instruments resolves the request counters once Telemetry is set.
	instruments         sync.Once
	mRequests, mReplans *telemetry.Counter
}

// New builds a planning service over the full set T of end-user services
// that plans through ps.
func New(catalog *workflow.Catalog, params planner.Params, ps *planner.Service) *Service {
	return &Service{Catalog: catalog, Params: params, Planner: ps}
}

// HandleMessage implements agent.Handler.
func (s *Service) HandleMessage(ctx *agent.Context, msg agent.Message) {
	req, ok := msg.Content.(PlanRequest)
	if !ok {
		_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("planning: unsupported content %T", msg.Content))
		return
	}
	reply, err := s.Plan(ctx, req)
	if err != nil {
		_ = ctx.Reply(msg, agent.Failure, err)
		return
	}
	_ = ctx.Reply(msg, agent.Inform, reply)
}

// Plan produces a process description for the request. When the request
// carries NonExecutable hints without TrustCaller, each hinted service is
// verified through brokerage and containers before being excluded.
func (s *Service) Plan(ctx *agent.Context, req PlanRequest) (PlanReply, error) {
	if s.Telemetry != nil {
		s.instruments.Do(func() {
			s.mRequests = s.Telemetry.Counter("planning.requests")
			s.mReplans = s.Telemetry.Counter("planning.replan.requests")
		})
	}
	s.mRequests.Inc()
	if len(req.NonExecutable) > 0 {
		s.mReplans.Inc()
	}
	excluded := map[string]bool{}
	for _, name := range req.NonExecutable {
		if req.TrustCaller || ctx == nil {
			excluded[name] = true
			continue
		}
		ok, err := s.verifyExecutable(ctx, name)
		if err != nil {
			return PlanReply{}, err
		}
		if !ok {
			excluded[name] = true
		}
	}

	exList := make([]string, 0, len(excluded))
	for _, name := range s.Catalog.Names() {
		if excluded[name] {
			exList = append(exList, name)
		}
	}
	// A verified-dead service invalidates every cached plan that uses it:
	// a stale cache hit would send enactment straight back to the fault.
	for _, name := range exList {
		s.Planner.InvalidateService(name)
	}

	params := s.Params
	if req.MaxCost > 0 {
		params.MaxCost = req.MaxCost
	}
	if req.MaxTime > 0 {
		params.MaxTime = req.MaxTime
	}
	var failedTree *plantree.Node
	if req.Failed != nil {
		if t, convErr := plantree.FromProcess(req.Failed); convErr == nil {
			failedTree = t
			params = params.Incremental()
		}
	}

	st, err := s.Planner.Submit(context.Background(), planner.PlanSpec{
		Initial:     req.Initial,
		Goal:        req.Goal,
		Excluded:    exList,
		Failed:      failedTree,
		Params:      &params,
		TaskID:      req.TaskID,
		Traceparent: req.Traceparent,
	})
	if err != nil {
		return PlanReply{}, fmt.Errorf("planning: %w", err)
	}
	st, err = s.Planner.Wait(context.Background(), st.ID)
	if err != nil {
		return PlanReply{}, fmt.Errorf("planning: %w", err)
	}
	if st.Status != planner.StatusSucceeded {
		return PlanReply{}, fmt.Errorf("planning: plan %s %s: %s", st.ID, st.Status, st.Error)
	}
	return PlanReply{Process: st.Process, PDL: st.PDL, Tree: st.Tree, Eval: st.Eval, Excluded: exList}, nil
}

// verifyExecutable performs the Figure 3 interaction: find a brokerage via
// the information service (steps 2-3), get candidate containers (steps 4-5),
// and probe each for availability (steps 6-7).
func (s *Service) verifyExecutable(ctx *agent.Context, service string) (bool, error) {
	offers, err := services.Lookup(ctx, "brokerage")
	if err != nil || len(offers) == 0 {
		return false, fmt.Errorf("planning: no brokerage service found: %v", err)
	}
	broker := offers[0].Name

	reply, err := ctx.Call(broker, services.OntBrokerage,
		services.ContainersRequest{Service: service}, 10*time.Second)
	if err != nil {
		return false, err
	}
	cr, ok := reply.Content.(services.ContainersReply)
	if !ok {
		return false, fmt.Errorf("planning: unexpected brokerage reply %T", reply.Content)
	}

	for _, containerID := range cr.Containers {
		probe, err := ctx.Call(containerID, services.OntExecution,
			services.AvailabilityRequest{Service: service}, 10*time.Second)
		if err != nil {
			continue // container agent gone: treat as not executable there
		}
		if ar, ok := probe.Content.(services.AvailabilityReply); ok && ar.Executable {
			return true, nil
		}
	}
	return false, nil
}
