package httpapi

// The asynchronous plan resource: POST /api/v1/plans submits a planning
// case to the environment's planner.Service and answers immediately with a
// plan handle (202 Accepted + Location), or — when the plan cache already
// holds the canonical case — with the finished plan (201 Created). The
// handle is polled via GET /api/v1/plans/{id} through the same
// queued|running|succeeded|failed|cancelled lifecycle tasks use, and
// DELETE cancels, mirroring DELETE /api/v1/tasks/{id}.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/planner"
	"repro/internal/workflow"
)

// PlanSubmission is the POST /api/v1/plans body.
type PlanSubmission struct {
	// ID names the plan; empty means the service assigns one.
	ID string `json:"id,omitempty"`
	// InitialData seeds the case, as in task submissions.
	InitialData []DataItemJSON `json:"initialData"`
	// Goal lists the case's goal conditions (required).
	Goal []string `json:"goal"`
	// Constraints are additional case constraints; they distinguish cache
	// entries (a different constraint set is a different case).
	Constraints []string `json:"constraints,omitempty"`
	// Excluded removes services from the planning catalog for this case.
	Excluded []string `json:"excluded,omitempty"`
	// NoCache bypasses the plan cache for this request.
	NoCache bool `json:"noCache,omitempty"`
}

// PlanView is the plan-resource wire shape.
type PlanView struct {
	ID          string     `json:"id"`
	Status      string     `json:"status"`
	Submitted   time.Time  `json:"submittedAt"`
	Started     *time.Time `json:"startedAt,omitempty"`
	Finished    *time.Time `json:"finishedAt,omitempty"`
	CacheHit    bool       `json:"cacheHit,omitempty"`
	Incremental bool       `json:"incremental,omitempty"`
	Error       string     `json:"error,omitempty"`

	PDL         string              `json:"pdl,omitempty"`
	Tree        string              `json:"tree,omitempty"`
	Eval        *planner.Evaluation `json:"eval,omitempty"`
	Evaluations int                 `json:"evaluations,omitempty"`
	Generations int                 `json:"generations,omitempty"`
	Excluded    []string            `json:"excluded,omitempty"`
}

func viewPlan(st planner.PlanStatus) PlanView {
	v := PlanView{
		ID:          st.ID,
		Status:      string(st.Status),
		Submitted:   st.Submitted,
		CacheHit:    st.CacheHit,
		Incremental: st.Incremental,
		Error:       st.Error,
		PDL:         st.PDL,
		Tree:        st.Tree,
		Evaluations: st.Evaluations,
		Generations: st.Generations,
		Excluded:    st.Excluded,
	}
	if !st.Started.IsZero() {
		t := st.Started
		v.Started = &t
	}
	if !st.Finished.IsZero() {
		t := st.Finished
		v.Finished = &t
	}
	if st.Status == planner.StatusSucceeded {
		e := st.Eval
		v.Eval = &e
	}
	return v
}

// handlePlanSubmit creates a plan: 202 Accepted with a Location header
// while the plan computes, or 201 Created when the plan cache answered the
// canonical case synchronously.
func (s *Server) handlePlanSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "plan_invalid", "reading plan submission: %v", err)
		return
	}
	var sub PlanSubmission
	if err := json.Unmarshal(body, &sub); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "plan_invalid", "bad plan submission: %v", err)
		return
	}
	if len(sub.Goal) == 0 {
		s.writeError(w, r, http.StatusBadRequest, "plan_invalid", "goal is required")
		return
	}
	items := make([]*workflow.DataItem, 0, len(sub.InitialData))
	for _, d := range sub.InitialData {
		items = append(items, d.item())
	}
	st, err := s.env.Planner.Submit(r.Context(), planner.PlanSpec{
		ID:          sub.ID,
		Initial:     items,
		Goal:        sub.Goal,
		Constraints: sub.Constraints,
		Excluded:    sub.Excluded,
		NoCache:     sub.NoCache,
	})
	switch {
	case errors.Is(err, planner.ErrInvalidSpec):
		s.writeError(w, r, http.StatusBadRequest, "plan_invalid", "%v", err)
		return
	case errors.Is(err, planner.ErrDuplicatePlan):
		s.writeError(w, r, http.StatusConflict, "duplicate_plan", "plan %q already submitted", sub.ID)
		return
	case errors.Is(err, planner.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		s.writeError(w, r, http.StatusTooManyRequests, "queue_full", "%v", err)
		return
	case errors.Is(err, planner.ErrServiceClosed):
		s.writeError(w, r, http.StatusServiceUnavailable, "unavailable", "%v", err)
		return
	case err != nil:
		s.writeError(w, r, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	w.Header().Set("Location", "/api/v1/plans/"+st.ID)
	code := http.StatusAccepted
	if st.Status.Terminal() {
		code = http.StatusCreated
	}
	writeJSON(w, code, viewPlan(st))
}

// handlePlanList lists retained plans in submission order (paginated).
func (s *Server) handlePlanList(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := parsePage(r)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	all := s.env.Planner.List()
	out := make([]PlanView, 0, len(all))
	for _, st := range all {
		out = append(out, viewPlan(st))
	}
	writeJSON(w, http.StatusOK, page{
		Items: paginate(out, limit, offset), Total: len(out), Limit: limit, Offset: offset,
	})
}

// handlePlanStatus serves one plan's status (and, once succeeded, the plan
// itself — warm handles answer straight from memory).
func (s *Server) handlePlanStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.env.Planner.Get(id)
	if err != nil {
		s.writeError(w, r, http.StatusNotFound, "plan_not_found", "no plan %q", id)
		return
	}
	writeJSON(w, http.StatusOK, viewPlan(st))
}

// handlePlanCancel stops a plan. Queued plans cancel immediately (200);
// running ones are signalled and finish cancelling asynchronously (202);
// already-cancelled and finished plans answer 409 with plan_cancelled /
// plan_finished — the same shape DELETE /api/v1/tasks/{id} uses.
func (s *Server) handlePlanCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.env.Planner.Cancel(id)
	switch {
	case errors.Is(err, planner.ErrUnknownPlan):
		s.writeError(w, r, http.StatusNotFound, "plan_not_found", "no plan %q", id)
		return
	case errors.Is(err, planner.ErrPlanCancelled):
		s.writeError(w, r, http.StatusConflict, "plan_cancelled", "plan %q is already cancelled", id)
		return
	case errors.Is(err, planner.ErrPlanFinished):
		s.writeError(w, r, http.StatusConflict, "plan_finished", "plan %q already finished (%s)", id, st.Status)
		return
	case err != nil:
		s.writeError(w, r, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	code := http.StatusAccepted
	status := "cancelling"
	if st.Status.Terminal() {
		code = http.StatusOK
		status = string(st.Status)
	}
	writeJSON(w, code, map[string]string{"id": id, "status": status})
}
