// Package httpapi is the User Interface of Figure 1: an HTTP/JSON facade
// over a core.Environment through which end users submit tasks, watch their
// progress, browse the grid and the service offerings, fetch ontologies,
// inspect telemetry, and run what-if simulations.
//
// The API is versioned under /api/v1. The unversioned /api/... paths were
// deprecated aliases for one release and are now removed: every former
// alias answers 410 gone (code "gone" in the error envelope) with a Link
// header naming the /api/v1 successor route, so stale clients get a
// machine-readable pointer instead of a silent 404.
//
// Endpoints (all under /api/v1):
//
//	GET  /api/v1/nodes                  grid nodes with live status (paginated)
//	GET  /api/v1/nodes/{id}/health      monitoring's health record of one node
//	GET  /api/v1/monitor                cluster health summary
//	GET  /api/v1/containers             application containers
//	GET  /api/v1/services               the end-user service catalog
//	GET  /api/v1/classes                resource equivalence classes
//	POST /api/v1/tasks                  submit a task to the enactment engine
//	GET  /api/v1/tasks                  list tasks, admission order (paginated)
//	GET  /api/v1/tasks/{id}             task status / final report
//	DELETE /api/v1/tasks/{id}           cancel a queued or running task
//	GET  /api/v1/tasks/{id}/trace       the task's telemetry span log
//	GET  /api/v1/queue                  enactment engine queue / worker stats
//	POST /api/v1/plans                  submit a planning case (202 + handle,
//	                                    or 201 when the plan cache answers)
//	GET  /api/v1/plans                  list plan handles (paginated)
//	GET  /api/v1/plans/{id}             plan status / finished plan
//	DELETE /api/v1/plans/{id}           cancel a queued or running plan
//	GET  /api/v1/archive                archived plan names
//	GET  /api/v1/archive/{name}         latest archived revision (PDL text)
//	GET  /api/v1/ontology/{name}        knowledge base JSON
//	GET  /api/v1/metrics                telemetry registry snapshot (JSON, or
//	                                    Prometheus text with ?format=prometheus)
//	GET  /api/v1/events                 live SSE stream of task spans and
//	                                    node-health transitions (?task=, ?kind=)
//	GET  /api/v1/stats                  grid-wide rollup: nodes, queue, rates
//	GET  /api/v1/store                  storage backend snapshot: kind, journal
//	                                    depth, group-commit and compaction counters
//	POST /api/v1/simulate               run the simulation service
//
// Every request is handled by the process that receives it.
//
// Outside the versioned prefix the server answers the operational probes
// GET /healthz (process liveness) and GET /readyz (enactment engine
// accepting work), and — only when EnablePprof is set — the net/http/pprof
// profiling handlers under /debug/pprof/.
//
// Paginated endpoints accept limit and offset query parameters and wrap the
// result as {"items": [...], "total": N, "limit": L, "offset": O}; limit -1
// (the default) means unlimited.
//
// Task submissions go through the durable enactment engine: they are
// journaled, queued (per-priority FIFO), and enacted by the engine's worker
// pool. A full queue answers 429 queue_full with a Retry-After header;
// finished records eventually age out of retention and answer 404
// task_evicted.
//
// /api/v1/tasks and /api/v1/plans share one asynchronous-resource
// convention: POST answers 202 Accepted (or 201 Created when the result
// already exists) with a Location header naming the resource, GET polls a
// status from the shared lifecycle queued|running|succeeded|failed|
// cancelled, and DELETE cancels (200 when already terminal work settled
// synchronously, 202 while cancellation propagates, 409 when the resource
// finished or was already cancelled).
//
// Every response carries an X-Request-Id header. Errors share one envelope:
// {"error": {"code": "...", "message": "..."}, "requestId": "..."} — also
// for unknown paths (404) and wrong methods (405), which stdlib muxes would
// otherwise answer in plain text.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/coordination"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/grid"
	"repro/internal/pdl"
	"repro/internal/services"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// Server wraps an environment. Create with New, mount via Handler.
type Server struct {
	env *core.Environment

	// Logger receives one structured record per request (method, path,
	// status, duration, request ID). Defaults to the environment's root
	// logger scoped to component=httpapi; replace before Handler is mounted
	// to redirect it, or set nil to silence request logging.
	Logger *slog.Logger

	// EnablePprof mounts the net/http/pprof profiling handlers under
	// /debug/pprof/ (gridenv's -pprof flag). Off by default: profiling
	// endpoints expose internals and cost CPU, so they are opt-in.
	EnablePprof bool

	reqSeq atomic.Int64 // request ID counter

	mu     sync.Mutex
	client *agent.Context // the UI's own agent, registered lazily
}

// New builds a server over the environment.
func New(env *core.Environment) *Server {
	return &Server{env: env, Logger: telemetry.ComponentLogger(env.Logger, "httpapi")}
}

// --- routing ---------------------------------------------------------------

// route is one row of the route table: a method, a path pattern relative to
// the version prefix, and its handler. The table is mounted under /api/v1;
// the same patterns are mounted under the removed /api prefix answering 410.
type route struct {
	method  string
	path    string
	handler http.HandlerFunc
}

func (s *Server) routes() []route {
	return []route{
		{http.MethodGet, "/nodes", s.handleNodes},
		{http.MethodGet, "/nodes/{id}/health", s.handleNodeHealth},
		{http.MethodGet, "/monitor", s.handleMonitor},
		{http.MethodGet, "/containers", s.handleContainers},
		{http.MethodGet, "/services", s.handleServices},
		{http.MethodGet, "/classes", s.handleClasses},
		{http.MethodPost, "/tasks", s.handleSubmit},
		{http.MethodGet, "/tasks", s.handleTaskList},
		{http.MethodGet, "/tasks/{id}", s.handleTaskGet},
		{http.MethodDelete, "/tasks/{id}", s.handleTaskCancel},
		{http.MethodGet, "/tasks/{id}/trace", s.handleTaskTrace},
		{http.MethodGet, "/queue", s.handleQueue},
		{http.MethodGet, "/tenants", s.handleTenants},
		{http.MethodGet, "/tenants/{id}", s.handleTenantGet},
		{http.MethodPost, "/plans", s.handlePlanSubmit},
		{http.MethodGet, "/plans", s.handlePlanList},
		{http.MethodGet, "/plans/{id}", s.handlePlanStatus},
		{http.MethodDelete, "/plans/{id}", s.handlePlanCancel},
		{http.MethodGet, "/archive", s.handleArchive},
		{http.MethodGet, "/archive/{name}", s.handleArchiveGet},
		{http.MethodGet, "/ontology/{name}", s.handleOntology},
		{http.MethodGet, "/metrics", s.handleMetrics},
		{http.MethodGet, "/events", s.handleEvents},
		{http.MethodGet, "/stats", s.handleStats},
		{http.MethodGet, "/store", s.handleStore},
		{http.MethodPost, "/simulate", s.handleSimulate},
	}
}

// Handler returns the HTTP handler: the route table mounted under /api/v1,
// the removed /api alias patterns answering 410 gone with the successor
// Link, behind the request-ID/logging/metrics middleware, with JSON 404/405
// fallbacks.
func (s *Server) Handler() http.Handler {
	byPath := map[string]map[string]http.HandlerFunc{}
	for _, rt := range s.routes() {
		if byPath[rt.path] == nil {
			byPath[rt.path] = map[string]http.HandlerFunc{}
		}
		byPath[rt.path][rt.method] = rt.handler
	}
	mux := http.NewServeMux()
	for path, methods := range byPath {
		mux.Handle("/api/v1"+path, s.dispatch(methods))
		mux.Handle("/api"+path, s.gone())
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, r, http.StatusNotFound, "not_found", "no route %s", r.URL.Path)
	})
	return s.middleware(mux)
}

// dispatch selects the handler by method, answering JSON 405 (with Allow)
// otherwise.
func (s *Server) dispatch(methods map[string]http.HandlerFunc) http.Handler {
	var allow []string
	for m := range methods {
		allow = append(allow, m)
	}
	sort.Strings(allow)
	allowHeader := strings.Join(allow, ", ")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, ok := methods[r.Method]
		if !ok {
			w.Header().Set("Allow", allowHeader)
			s.writeError(w, r, http.StatusMethodNotAllowed, "method_not_allowed",
				"method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allowHeader)
			return
		}
		h(w, r)
	})
}

// gone answers a removed unversioned /api alias: 410 with the error code
// "gone" and a Link header naming the /api/v1 successor route, regardless of
// method — the route no longer exists, so method dispatch does not apply.
func (s *Server) gone() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		successor := "/api/v1" + strings.TrimPrefix(r.URL.Path, "/api")
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		s.writeError(w, r, http.StatusGone, "gone",
			"the unversioned API was removed; use %s", successor)
	})
}

// --- middleware ------------------------------------------------------------

// requestIDHeader carries the per-request ID on every response.
const requestIDHeader = "X-Request-Id"

// middleware assigns the request ID, records http.* metrics, and logs the
// request line.
func (s *Server) middleware(next http.Handler) http.Handler {
	tel := s.telemetry()
	latency := tel.Histogram("http.request.seconds",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// An inbound X-Request-Id (a client threading its own correlation
		// ID) is adopted; otherwise one is generated.
		rid := r.Header.Get(requestIDHeader)
		if rid == "" {
			rid = fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
		}
		w.Header().Set(requestIDHeader, rid)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		tel.Counter("http.requests.total").Inc()
		tel.Counter(fmt.Sprintf("http.responses.%dxx", rec.status/100)).Inc()
		latency.Observe(elapsed.Seconds())
		if s.Logger != nil {
			s.Logger.Info("request served",
				slog.String("method", r.Method), slog.String("path", r.URL.Path),
				slog.Int("status", rec.status), slog.Float64("durMs", float64(elapsed)/float64(time.Millisecond)),
				slog.String("requestId", rid))
		}
	})
}

// statusRecorder captures the response status for metrics and logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers (SSE) keep
// working behind the middleware's wrapper.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) telemetry() *telemetry.Registry {
	if s.env == nil {
		return nil
	}
	return s.env.Telemetry
}

// --- response helpers ------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
	RequestID string `json:"requestId"`
}

// writeError emits the error envelope; the request ID is the one the
// middleware stamped on the response header.
func (s *Server) writeError(w http.ResponseWriter, _ *http.Request, status int, code, format string, args ...any) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = fmt.Sprintf(format, args...)
	body.RequestID = w.Header().Get(requestIDHeader)
	writeJSON(w, status, body)
}

// page wraps a paginated listing.
type page struct {
	Items  any `json:"items"`
	Total  int `json:"total"`
	Limit  int `json:"limit"` // -1 = unlimited
	Offset int `json:"offset"`
}

// parsePage reads limit/offset query parameters. Missing limit means
// unlimited (-1); limit=0 is a valid empty page; negatives and non-integers
// are errors.
func parsePage(r *http.Request) (limit, offset int, err error) {
	limit = -1
	if v := r.URL.Query().Get("limit"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 0 {
			return 0, 0, fmt.Errorf("limit must be a non-negative integer, got %q", v)
		}
		limit = n
	}
	if v := r.URL.Query().Get("offset"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 0 {
			return 0, 0, fmt.Errorf("offset must be a non-negative integer, got %q", v)
		}
		offset = n
	}
	return limit, offset, nil
}

// paginate applies offset/limit to items; limit -1 means all from offset.
func paginate[T any](items []T, limit, offset int) []T {
	if offset >= len(items) {
		return []T{}
	}
	items = items[offset:]
	if limit >= 0 && limit < len(items) {
		items = items[:limit]
	}
	return items
}

// --- read-only grid views --------------------------------------------------

type nodeView struct {
	ID       string   `json:"id"`
	Domain   string   `json:"domain"`
	Type     string   `json:"type"`
	Speed    float64  `json:"speed"`
	Cost     float64  `json:"costPerSec"`
	Up       bool     `json:"up"`
	Software []string `json:"software,omitempty"`
}

func (s *Server) handleNodes(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := parsePage(r)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	out := []nodeView{}
	for _, n := range s.env.Grid.Nodes() {
		var sw []string
		for _, pkg := range n.Software {
			sw = append(sw, pkg.Name)
		}
		out = append(out, nodeView{
			ID: n.ID, Domain: n.Domain, Type: n.Hardware.Type,
			Speed: n.Hardware.Speed, Cost: n.CostPerSec, Up: n.Up(), Software: sw,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, page{
		Items: paginate(out, limit, offset), Total: len(out), Limit: limit, Offset: offset,
	})
}

// handleNodeHealth serves monitoring's health record of one node, fetched
// through the monitoring agent so the answer is the authoritative live view.
func (s *Server) handleNodeHealth(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	client, err := s.clientContext()
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	reply, err := client.Call(services.MonitoringName, services.OntMonitoring,
		services.NodeHealthRequest{Node: id}, services.CallTimeout)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	hr, ok := reply.Content.(services.NodeHealthReply)
	if !ok {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "unexpected monitoring reply %T", reply.Content)
		return
	}
	if !hr.Health.Known {
		s.writeError(w, r, http.StatusNotFound, "not_found", "no node %q", id)
		return
	}
	writeJSON(w, http.StatusOK, hr.Health)
}

// handleMonitor serves the cluster-wide health summary.
func (s *Server) handleMonitor(w http.ResponseWriter, r *http.Request) {
	client, err := s.clientContext()
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	reply, err := client.Call(services.MonitoringName, services.OntMonitoring,
		services.ClusterHealthRequest{}, services.CallTimeout)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	ch, ok := reply.Content.(services.ClusterHealthReply)
	if !ok {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "unexpected monitoring reply %T", reply.Content)
		return
	}
	writeJSON(w, http.StatusOK, ch)
}

type containerView struct {
	ID       string   `json:"id"`
	Node     string   `json:"node"`
	Services []string `json:"services"`
}

func (s *Server) handleContainers(w http.ResponseWriter, _ *http.Request) {
	var out []containerView
	for _, c := range s.env.Grid.Containers() {
		out = append(out, containerView{ID: c.ID, Node: c.NodeID, Services: c.Services})
	}
	writeJSON(w, http.StatusOK, out)
}

type serviceView struct {
	Name     string   `json:"name"`
	Inputs   []string `json:"inputs"`
	Outputs  []string `json:"outputs"`
	BaseTime float64  `json:"baseTime"`
	Cost     float64  `json:"cost"`
}

func (s *Server) handleServices(w http.ResponseWriter, _ *http.Request) {
	var out []serviceView
	for _, svc := range s.env.Catalog.Services() {
		v := serviceView{Name: svc.Name, BaseTime: svc.BaseTime, Cost: svc.Cost}
		for i := range svc.Inputs {
			v.Inputs = append(v.Inputs, svc.Inputs[i].Condition)
		}
		for _, o := range svc.Outputs {
			v.Outputs = append(v.Outputs, o.Name)
		}
		out = append(out, v)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleClasses(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.env.Grid.EquivalenceClasses())
}

// --- task submission ---------------------------------------------------------

// TaskSubmission is the POST /api/v1/tasks body.
type TaskSubmission struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// PDL is the process description text; empty means NeedPlanning.
	PDL string `json:"pdl,omitempty"`
	// InitialData seeds the case (property map values are strings or
	// numbers).
	InitialData []DataItemJSON `json:"initialData"`
	// Goal lists the case's goal conditions.
	Goal []string `json:"goal"`
	// Deadline is a soft wall-clock deadline in simulated seconds (0 = none).
	Deadline float64 `json:"deadline,omitempty"`
	// Budget caps the case's accumulated simulated spend in currency units
	// (0 = unlimited). Validated as 400 bad_constraints when negative or
	// non-finite.
	Budget float64 `json:"budget,omitempty"`
	// HardDeadline upgrades Deadline from advisory (report-only) to an
	// enforced constraint: the scheduler prefers nodes that keep the case
	// inside the deadline and the case terminates deadline_missed when it is
	// blown. Requires Deadline > 0.
	HardDeadline bool `json:"hardDeadline,omitempty"`
	// Priority is the admission class: "high", "normal" (default), or "low".
	Priority string `json:"priority,omitempty"`
	// Tenant attributes the task to a submitting principal (accounting).
	Tenant string `json:"tenant,omitempty"`
	// Policy overrides the fault-tolerance policy for this task; omitted
	// fields keep the coordinator's defaults.
	Policy *PolicyJSON `json:"policy,omitempty"`
	// Faults installs a deterministic fault-injection spec on the grid
	// before the task runs (chaos testing over the API).
	Faults *grid.FaultSpec `json:"faults,omitempty"`
}

// PolicyJSON is the wire form of coordination.Policy: durations in
// milliseconds, pointers so absent fields fall back to defaults.
type PolicyJSON struct {
	MaxRetries        *int     `json:"maxRetries,omitempty"`
	ActivityTimeoutMS *float64 `json:"activityTimeoutMS,omitempty"`
	BackoffBaseMS     *float64 `json:"backoffBaseMS,omitempty"`
	BackoffCapMS      *float64 `json:"backoffCapMS,omitempty"`
	DeadlineMS        *float64 `json:"deadlineMS,omitempty"`
	Seed              *int64   `json:"seed,omitempty"`
}

// toPolicy converts the wire form; nil yields nil (defaults).
func (pj *PolicyJSON) toPolicy() *coordination.Policy {
	if pj == nil {
		return nil
	}
	p := &coordination.Policy{}
	if pj.MaxRetries != nil {
		p.MaxRetries = *pj.MaxRetries
	}
	if pj.ActivityTimeoutMS != nil {
		p.ActivityTimeout = *pj.ActivityTimeoutMS / 1000
	}
	if pj.BackoffBaseMS != nil {
		p.BackoffBase = *pj.BackoffBaseMS / 1000
	}
	if pj.BackoffCapMS != nil {
		p.BackoffCap = *pj.BackoffCapMS / 1000
	}
	if pj.DeadlineMS != nil {
		p.Deadline = time.Duration(*pj.DeadlineMS * float64(time.Millisecond))
	}
	if pj.Seed != nil {
		p.Seed = *pj.Seed
	}
	return p
}

// policyView echoes a resolved policy back in wire units.
type policyView struct {
	MaxRetries        int     `json:"maxRetries"`
	ActivityTimeoutMS float64 `json:"activityTimeoutMS"`
	BackoffBaseMS     float64 `json:"backoffBaseMS"`
	BackoffCapMS      float64 `json:"backoffCapMS"`
	DeadlineMS        float64 `json:"deadlineMS"`
	Seed              int64   `json:"seed"`
}

func viewPolicy(p coordination.Policy) policyView {
	return policyView{
		MaxRetries:        p.MaxRetries,
		ActivityTimeoutMS: p.ActivityTimeout * 1000,
		BackoffBaseMS:     p.BackoffBase * 1000,
		BackoffCapMS:      p.BackoffCap * 1000,
		DeadlineMS:        float64(p.Deadline) / float64(time.Millisecond),
		Seed:              p.Seed,
	}
}

// DataItemJSON is one initial data item.
type DataItemJSON struct {
	Name           string             `json:"name"`
	Classification string             `json:"classification"`
	Props          map[string]float64 `json:"props,omitempty"`
	TextProps      map[string]string  `json:"textProps,omitempty"`
}

// tenantHeader carries the requester's tenant. A submission without a body
// tenant reads it, so a client may name its tenant the same way on every
// request.
const tenantHeader = "X-Tenant"

// requestTenant reads the tenant a request acts for from its header.
func requestTenant(r *http.Request) string { return r.Header.Get(tenantHeader) }

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "reading submission: %v", err)
		return
	}
	var sub TaskSubmission
	if err := json.Unmarshal(body, &sub); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "bad submission: %v", err)
		return
	}
	if sub.ID == "" || len(sub.Goal) == 0 {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "id and goal are required")
		return
	}
	if sub.Tenant == "" {
		sub.Tenant = requestTenant(r)
	}
	caseDesc := workflow.NewCase(sub.ID, sub.Name)
	for _, d := range sub.InitialData {
		item := workflow.NewDataItem(d.Name, d.Classification)
		for k, v := range d.Props {
			item.With(k, expr.Number(v))
		}
		for k, v := range d.TextProps {
			item.With(k, expr.String(v))
		}
		caseDesc.AddData(item)
	}
	caseDesc.Goal = workflow.NewGoal(sub.Goal...)
	caseDesc.Deadline = sub.Deadline
	caseDesc.Budget = sub.Budget
	caseDesc.HardDeadline = sub.HardDeadline
	if err := caseDesc.ValidateConstraints(); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_constraints", "bad constraints: %v", err)
		return
	}
	task := &workflow.Task{ID: sub.ID, Name: sub.Name, Case: caseDesc}
	if sub.PDL == "" {
		task.NeedPlanning = true
	} else {
		p, err := pdl.ParseProcess(sub.ID, sub.PDL)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_pdl", "bad PDL: %v", err)
			return
		}
		task.Process = p
	}
	if err := task.Validate(); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "invalid_task", "invalid task: %v", err)
		return
	}
	pol := sub.Policy.toPolicy()
	if err := pol.Validate(); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_policy", "bad policy: %v", err)
		return
	}
	prio, err := engine.ParsePriority(sub.Priority)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_priority", "%v", err)
		return
	}
	if sub.Faults != nil {
		if err := s.env.Grid.SetFaults(sub.Faults); err != nil {
			s.writeError(w, r, http.StatusBadRequest, "bad_faults", "bad fault spec: %v", err)
			return
		}
	}

	status, err := s.env.Engine.Submit(engine.Submission{
		Task: task, Policy: pol, Priority: prio, Tenant: sub.Tenant,
		Traceparent: r.Header.Get(traceparentHeader),
		RequestID:   w.Header().Get(requestIDHeader),
	})
	switch {
	case errors.Is(err, engine.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.env.Engine.RetryAfterSeconds()))
		s.writeError(w, r, http.StatusTooManyRequests, "queue_full", "%v", err)
		return
	case errors.Is(err, engine.ErrTenantQueueFull):
		s.rateLimitHeaders(w, sub.Tenant, false)
		s.writeError(w, r, http.StatusTooManyRequests, "tenant_queue_full", "%v", err)
		return
	case errors.Is(err, engine.ErrTenantRateLimited):
		s.rateLimitHeaders(w, sub.Tenant, true)
		s.writeError(w, r, http.StatusTooManyRequests, "tenant_rate_limited", "%v", err)
		return
	case errors.Is(err, engine.ErrDuplicate):
		s.writeError(w, r, http.StatusConflict, "duplicate_task", "task %q already submitted", sub.ID)
		return
	case err != nil:
		s.writeError(w, r, http.StatusBadRequest, "invalid_task", "%v", err)
		return
	}
	w.Header().Set("Location", "/api/v1/tasks/"+sub.ID)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":            sub.ID,
		"status":        lifecycle(status.Status),
		"queuePosition": status.QueuePosition,
		"priority":      status.Priority.String(),
		"policy":        viewPolicy(status.Policy),
	})
}

// lifecycle maps the engine's internal status spelling onto the uniform
// async-resource lifecycle (queued|running|succeeded|failed|cancelled)
// shared by /api/v1/tasks and /api/v1/plans. The engine keeps "completed"
// internally — persisted journal records replay against it — so the
// translation lives at the API boundary only.
func lifecycle(status string) string {
	if status == engine.StatusCompleted {
		return "succeeded"
	}
	return status
}

// handleTaskCancel stops a task through the engine. Queued tasks are
// cancelled immediately; running ones get their context cancelled and the
// record transitions to "cancelled" once the enactment unwinds (202).
// Finished tasks answer 409.
func (s *Server) handleTaskCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	result, err := s.env.Engine.Cancel(id)
	switch {
	case errors.Is(err, engine.ErrEvicted):
		s.writeError(w, r, http.StatusNotFound, "task_evicted", "task %q finished and its record was evicted", id)
		return
	case errors.Is(err, engine.ErrUnknownTask):
		s.writeError(w, r, http.StatusNotFound, "not_found", "no task %q", id)
		return
	case errors.Is(err, engine.ErrFinished):
		s.writeError(w, r, http.StatusConflict, "task_finished", "%v", err)
		return
	case err != nil:
		s.writeError(w, r, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	code := http.StatusAccepted
	if result == engine.StatusCancelled {
		code = http.StatusOK
	}
	writeJSON(w, code, map[string]string{"id": id, "status": lifecycle(result)})
}

// handleQueue serves the enactment engine's queue and worker-pool snapshot.
func (s *Server) handleQueue(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.env.Engine.Stats())
}

// TaskView is the GET /api/v1/tasks/{id} response.
type TaskView struct {
	ID        string    `json:"id"`
	Status    string    `json:"status"`
	Submitted time.Time `json:"submittedAt"`
	// QueuePosition is the 1-based drain position while the task is queued.
	QueuePosition int `json:"queuePosition,omitempty"`
	// Attempt counts execution attempts (recovery re-runs increment it).
	Attempt     int      `json:"attempt,omitempty"`
	Priority    string   `json:"priority,omitempty"`
	Tenant      string   `json:"tenant,omitempty"`
	Error       string   `json:"error,omitempty"`
	Completed   bool     `json:"completed,omitempty"`
	GoalFitness float64  `json:"goalFitness,omitempty"`
	Executed    int      `json:"executed,omitempty"`
	Failures    int      `json:"failures,omitempty"`
	Retries     int      `json:"retries,omitempty"`
	Faults      int      `json:"faults,omitempty"`
	Replans     int      `json:"replans,omitempty"`
	BackoffWait float64  `json:"backoffWait,omitempty"`
	Deadline    bool     `json:"deadlineMissed,omitempty"`
	Wall        float64  `json:"wallClockTime,omitempty"`
	Time        float64  `json:"simulatedTime,omitempty"`
	Cost        float64  `json:"totalCost,omitempty"`
	FinalData   []string `json:"finalData,omitempty"`
	// Reason refines a terminal status (budget_exceeded, deadline_missed).
	Reason string `json:"reason,omitempty"`
	// Budget echoes the submitted spend cap; Spent is the case's accumulated
	// simulated cost against it (same as totalCost, surfaced here so budget
	// accounting reads as a pair).
	Budget float64 `json:"budget,omitempty"`
	Spent  float64 `json:"spent,omitempty"`
	// DeadlineSec echoes the submitted deadline; HardDeadline says whether it
	// is enforced; DeadlineSlackSec is deadline minus simulated time so far
	// (negative once blown).
	DeadlineSec      float64  `json:"deadlineSec,omitempty"`
	HardDeadline     bool     `json:"hardDeadline,omitempty"`
	DeadlineSlackSec *float64 `json:"deadlineSlackSec,omitempty"`
	// Policy echoes the resolved fault-tolerance policy, when known.
	Policy *policyView `json:"policy,omitempty"`
}

func viewTask(rec engine.TaskStatus) TaskView {
	v := TaskView{
		ID: rec.ID, Status: lifecycle(rec.Status), Submitted: rec.Submitted,
		QueuePosition: rec.QueuePosition, Attempt: rec.Attempt,
		Priority: rec.Priority.String(), Tenant: rec.Tenant, Error: rec.Error,
		Reason: rec.Reason, Budget: rec.Budget,
		DeadlineSec: rec.Deadline, HardDeadline: rec.HardDeadline,
	}
	pv := viewPolicy(rec.Policy)
	v.Policy = &pv
	if r := rec.Report; r != nil {
		v.Completed = r.Completed
		v.GoalFitness = r.GoalFitness
		v.Executed = r.Executed
		v.Failures = r.Failures
		v.Retries = r.Retries
		v.Faults = r.Faults
		v.Replans = r.Replans
		v.BackoffWait = r.BackoffWait
		v.Deadline = r.DeadlineMissed
		v.Wall = r.WallClockTime
		v.Time = r.SimulatedTime
		v.Cost = r.TotalCost
		v.Spent = r.TotalCost
		if rec.Deadline > 0 {
			slack := rec.Deadline - r.SimulatedTime
			v.DeadlineSlackSec = &slack
		}
		if r.FinalState != nil {
			for _, item := range r.FinalState.Items() {
				v.FinalData = append(v.FinalData, item.String())
			}
		}
	}
	return v
}

func (s *Server) handleTaskList(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := parsePage(r)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	recs := s.env.Engine.Tasks()
	out := make([]TaskView, 0, len(recs))
	for _, rec := range recs {
		out = append(out, viewTask(rec))
	}
	writeJSON(w, http.StatusOK, page{
		Items: paginate(out, limit, offset), Total: len(out), Limit: limit, Offset: offset,
	})
}

func (s *Server) handleTaskGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, err := s.env.Engine.Task(id)
	switch {
	case errors.Is(err, engine.ErrEvicted):
		s.writeError(w, r, http.StatusNotFound, "task_evicted", "task %q finished and its record was evicted", id)
		return
	case err != nil:
		s.writeError(w, r, http.StatusNotFound, "not_found", "no task %q", id)
		return
	}
	writeJSON(w, http.StatusOK, viewTask(rec))
}

// --- telemetry -------------------------------------------------------------

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.telemetry().Snapshot()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, snap)
	case "prometheus":
		w.Header().Set("Content-Type", telemetry.PrometheusContentType)
		w.WriteHeader(http.StatusOK)
		_ = telemetry.WritePrometheus(w, snap)
	default:
		s.writeError(w, r, http.StatusBadRequest, "bad_request",
			"unknown format %q (want json or prometheus)", format)
	}
}

// handleHealthz is the liveness probe: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness probe: 200 only while the enactment engine
// is started and accepting work, 503 otherwise (so load balancers drain the
// instance during startup and shutdown).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.env == nil || s.env.Engine == nil || !s.env.Engine.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unready"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// --- plan archive and ontology ----------------------------------------------

// handleArchive lists the archived (named, versioned) plans. The live
// asynchronous plan resource lives at /api/v1/plans; the archive is the
// knowledge-base shelf Plan() writes finished named plans to.
func (s *Server) handleArchive(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.env.Archive.Names(""))
}

func (s *Server) handleArchiveGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	_, entry, err := s.env.Archive.Get(name, 0)
	if err != nil {
		s.writeError(w, r, http.StatusNotFound, "not_found", "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name": entry.Name, "version": entry.Version,
		"creator": entry.Creator, "pdl": entry.PDL,
	})
}

func (s *Server) handleOntology(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Fetch through the ontology service agent for faithfulness.
	client, err := s.clientContext()
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	reply, err := client.Call(services.OntologyName, services.OntOntology,
		services.KBRequest{Name: name}, services.CallTimeout)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	kr, ok := reply.Content.(services.KBReply)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "not_found", "no ontology %q", name)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(kr.JSON)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req services.SimulateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "bad request: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.env.Services.Simulation.Simulate(req))
}

// clientContext lazily registers the UI's own agent on the platform.
func (s *Server) clientContext() (*agent.Context, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.client == nil {
		c, err := s.env.Platform.Register("user-interface",
			agent.HandlerFunc(func(*agent.Context, agent.Message) {}))
		if err != nil {
			return nil, err
		}
		s.client = c
	}
	return s.client, nil
}
