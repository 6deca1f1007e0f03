package planner

// Service is the planning production surface: an asynchronous
// Submit/Get/Wait/Cancel resource over a pool of plan workers, fronted by
// the case-keyed PlanCache. It is the single entry point for planning —
// the HTTP /api/v1/plans resource, the planning agent, and the CLI
// protocols (RunManyContext) all go through it — so parallelism, caching,
// incremental re-planning, and per-plan telemetry live in one place.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/pdl"
	"repro/internal/plantree"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// Status is the plan lifecycle: queued → running → one of the terminal
// states. The same enum (and JSON spelling) is shared by the /api/v1
// async-resource convention.
type Status string

// Plan lifecycle states.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusSucceeded Status = "succeeded"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusSucceeded || s == StatusFailed || s == StatusCancelled
}

// Service errors, mapped onto the HTTP error envelope by the API layer.
var (
	ErrInvalidSpec   = errors.New("planner: invalid plan spec")
	ErrUnknownPlan   = errors.New("planner: unknown plan")
	ErrDuplicatePlan = errors.New("planner: duplicate plan id")
	ErrPlanFinished  = errors.New("planner: plan already finished")
	ErrPlanCancelled = errors.New("planner: plan already cancelled")
	ErrQueueFull     = errors.New("planner: plan queue full")
	ErrServiceClosed = errors.New("planner: service closed")
)

// PlanSpec describes one planning case to solve.
type PlanSpec struct {
	// ID names the plan; empty means the service assigns one.
	ID string
	// Initial is the data available at the start of the case.
	Initial []*workflow.DataItem
	// Goal is the non-empty set of goal conditions (expression sources).
	Goal []string
	// Constraints are additional case constraints; they key the cache (a
	// different constraint set is a different case) and must parse.
	Constraints []string
	// Excluded removes services from the planning catalog (the verified
	// non-executable set of a Figure-3 re-plan).
	Excluded []string
	// Failed, when set, makes the plan incremental: the population is
	// seeded from this failed plan's neighborhood (the adapted tree plus
	// mutants) and, unless Params overrides it, the reduced Incremental()
	// budget applies. Not part of the cache key.
	Failed *plantree.Node
	// Params overrides the service defaults for this plan.
	Params *Params
	// NoCache bypasses the plan cache (both lookup and fill).
	NoCache bool
	// TreeOnly skips the PDL conversion of the best tree (protocol runs
	// that only need Result). TreeOnly plans are never cached.
	TreeOnly bool
	// TaskID, when set, routes the per-generation GP spans to that task's
	// telemetry trace instead of the plan's own.
	TaskID string
	// Traceparent carries the submitting task's W3C trace context; the plan
	// span then joins that trace as a child of the caller's span (plan→task
	// causality survives the agent-message hop).
	Traceparent string
}

// PlanStatus is the observable state of a plan.
type PlanStatus struct {
	ID        string    `json:"id"`
	Status    Status    `json:"status"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`

	// CacheHit marks a plan answered from the plan cache (terminal at
	// submit time); Incremental marks a neighborhood-seeded re-plan.
	CacheHit    bool `json:"cacheHit,omitempty"`
	Incremental bool `json:"incremental,omitempty"`

	Error string `json:"error,omitempty"`

	PDL         string     `json:"pdl,omitempty"`
	Tree        string     `json:"tree,omitempty"`
	Eval        Evaluation `json:"eval"`
	Evaluations int        `json:"evaluations"`
	Generations int        `json:"generations"`
	Excluded    []string   `json:"excluded,omitempty"`

	// Process is the validated process description PDL formats, built once
	// by the plan that computed it. Every cache hit hands out the same
	// value, so it is read-only: enact it or clone it, never change it.
	Process *workflow.ProcessDescription `json:"-"`

	// Key is the canonical case key the cache used.
	Key string `json:"key,omitempty"`

	// Result carries the full GP result for in-process callers; it is
	// nil for cache hits and non-succeeded plans.
	Result *Result `json:"-"`
}

// The service's bounds: queueCapacity queued plans, planCacheSize cached
// plans (past it the oldest half is dropped; plans are small, a PDL string
// and an evaluation, so it is generous), and retainFinished terminal plans
// kept queryable, the oldest evicted first.
const (
	queueCapacity  = 256
	planCacheSize  = 4096
	retainFinished = 1024
)

// ServiceConfig configures NewService.
type ServiceConfig struct {
	// Catalog is the full service catalog plans draw from (required).
	Catalog *workflow.Catalog
	// Params are the default GP parameters; the zero value means
	// DefaultParams().
	Params Params
	// Telemetry, when set, receives planner.* metrics and per-plan spans.
	Telemetry *telemetry.Registry
	// workers sizes the plan worker pool; 0 means GOMAXPROCS. Only this
	// package's tests set it.
	workers int
}

// Service is the asynchronous planning service. Create with NewService,
// stop with Close.
type Service struct {
	cfg     ServiceConfig
	workers int
	cache   *PlanCache
	tel     *telemetry.Registry
	queue   chan *planJob
	wg      sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	records  map[string]*planJob
	order    []string // submission order (for List)
	finished []string // finalization order (for retention eviction)
	seq      int64
	inFlight int

	submitted, succeeded, failed, cancelled int64
	latencies                               [512]float64
	latPos, latCount                        int

	// Instruments, resolved once by NewService: a submission looks none up.
	mHits, mMisses, mInvalidations              *telemetry.Counter
	mSubmitted, mSucceeded, mFailed, mCancelled *telemetry.Counter
	hPlanSeconds                                *telemetry.Histogram
	gInFlight                                   *telemetry.Gauge
}

type planJob struct {
	spec   PlanSpec
	params Params
	status PlanStatus
	cancel context.CancelFunc
	done   chan struct{}
}

// NewService starts the worker pool and returns the service.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Catalog == nil || cfg.Catalog.Len() == 0 {
		return nil, fmt.Errorf("%w: empty catalog", ErrInvalidSpec)
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		cfg:     cfg,
		workers: workers,
		cache:   NewPlanCache(planCacheSize),
		tel:     cfg.Telemetry,
		queue:   make(chan *planJob, queueCapacity),
		records: make(map[string]*planJob),

		mHits:          cfg.Telemetry.Counter("planner.plan_cache.hits"),
		mMisses:        cfg.Telemetry.Counter("planner.plan_cache.misses"),
		mInvalidations: cfg.Telemetry.Counter("planner.plan_cache.invalidations"),
		mSubmitted:     cfg.Telemetry.Counter("planner.service.submitted"),
		mSucceeded:     cfg.Telemetry.Counter("planner.service.succeeded"),
		mFailed:        cfg.Telemetry.Counter("planner.service.failed"),
		mCancelled:     cfg.Telemetry.Counter("planner.service.cancelled"),
		hPlanSeconds:   cfg.Telemetry.Histogram("planner.service.plan_seconds", []float64{0.001, 0.01, 0.1, 0.5, 1, 2, 5, 10}),
		gInFlight:      cfg.Telemetry.Gauge("planner.service.in_flight"),
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// validateSpec rejects malformed cases up front, so the caller gets a
// synchronous ErrInvalidSpec instead of an async failed plan.
func (s *Service) validateSpec(spec *PlanSpec, params Params) error {
	if len(spec.Goal) == 0 {
		return fmt.Errorf("%w: no goal conditions", ErrInvalidSpec)
	}
	for _, g := range spec.Goal {
		if _, err := expr.Parse(g); err != nil {
			return fmt.Errorf("%w: goal %q: %v", ErrInvalidSpec, g, err)
		}
	}
	for _, c := range spec.Constraints {
		if _, err := expr.Parse(c); err != nil {
			return fmt.Errorf("%w: constraint %q: %v", ErrInvalidSpec, c, err)
		}
	}
	if err := params.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidSpec, err)
	}
	excluded := make(map[string]bool, len(spec.Excluded))
	for _, n := range spec.Excluded {
		excluded[n] = true
	}
	usable := 0
	for _, name := range s.cfg.Catalog.Names() {
		if !excluded[name] {
			usable++
		}
	}
	if usable == 0 {
		return fmt.Errorf("%w: no executable services remain", ErrInvalidSpec)
	}
	return nil
}

// resolveParams picks the effective GP parameters for a spec: the override
// if present, else the service defaults reduced to the Incremental()
// budget for neighborhood-seeded re-plans; an unset EvalWorkers becomes
// this worker's fair share of GOMAXPROCS, so concurrent plans do not
// oversubscribe the cores.
func (s *Service) resolveParams(spec *PlanSpec) Params {
	var p Params
	switch {
	case spec.Params != nil:
		p = *spec.Params
	case spec.Failed != nil:
		p = s.cfg.Params.Incremental()
	default:
		p = s.cfg.Params
	}
	if p.EvalWorkers == 0 {
		p.EvalWorkers = max(1, runtime.GOMAXPROCS(0)/s.workers)
	}
	return p
}

// Submit enqueues a plan and returns its status snapshot: queued, or
// already terminal on a cache hit (the warm path answers synchronously in
// well under a millisecond). The plan itself runs on the service pool
// under the service's lifetime, not the caller's context; cancel it with
// Cancel.
func (s *Service) Submit(ctx context.Context, spec PlanSpec) (PlanStatus, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return PlanStatus{}, err
		}
	}
	params := s.resolveParams(&spec)
	if err := s.validateSpec(&spec, params); err != nil {
		return PlanStatus{}, err
	}
	key := CanonicalKey(spec.Initial, spec.Goal, spec.Constraints, spec.Excluded, params)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return PlanStatus{}, ErrServiceClosed
	}
	if spec.ID == "" {
		s.seq++
		spec.ID = fmt.Sprintf("plan-%06d", s.seq)
	}
	if _, ok := s.records[spec.ID]; ok {
		return PlanStatus{}, fmt.Errorf("%w: %s", ErrDuplicatePlan, spec.ID)
	}
	j := &planJob{
		spec:   spec,
		params: params,
		done:   make(chan struct{}),
		status: PlanStatus{
			ID:          spec.ID,
			Status:      StatusQueued,
			Submitted:   time.Now(),
			Incremental: spec.Failed != nil,
			Excluded:    append([]string(nil), spec.Excluded...),
			Key:         key,
		},
	}

	if !spec.NoCache && !spec.TreeOnly {
		if hit, ok := s.cache.Get(key); ok {
			s.mHits.Inc()
			j.status.Status = StatusSucceeded
			j.status.CacheHit = true
			j.status.PDL = hit.PDL
			j.status.Process = hit.Process
			j.status.Tree = hit.Tree
			j.status.Eval = hit.Eval
			s.records[spec.ID] = j
			s.order = append(s.order, spec.ID)
			s.submitted++
			s.mSubmitted.Inc()
			s.finalizeLocked(j, StatusSucceeded, "")
			return j.status, nil
		}
		s.mMisses.Inc()
	}

	select {
	case s.queue <- j:
	default:
		return PlanStatus{}, ErrQueueFull
	}
	s.records[spec.ID] = j
	s.order = append(s.order, spec.ID)
	s.submitted++
	s.mSubmitted.Inc()
	return j.status, nil
}

// Get returns the plan's status snapshot.
func (s *Service) Get(id string) (PlanStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.records[id]
	if j == nil {
		return PlanStatus{}, ErrUnknownPlan
	}
	return j.status, nil
}

// Wait blocks until the plan reaches a terminal status or the context
// ends, then returns the final status.
func (s *Service) Wait(ctx context.Context, id string) (PlanStatus, error) {
	s.mu.Lock()
	j := s.records[id]
	s.mu.Unlock()
	if j == nil {
		return PlanStatus{}, ErrUnknownPlan
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		return s.Get(id)
	case <-ctx.Done():
		return PlanStatus{}, ctx.Err()
	}
}

// Cancel stops a plan: a queued plan finalizes as cancelled immediately; a
// running plan is signalled and finalizes as cancelled when its current
// generation notices. Terminal plans return ErrPlanCancelled or
// ErrPlanFinished alongside the unchanged status.
func (s *Service) Cancel(id string) (PlanStatus, error) {
	s.mu.Lock()
	j := s.records[id]
	if j == nil {
		s.mu.Unlock()
		return PlanStatus{}, ErrUnknownPlan
	}
	switch j.status.Status {
	case StatusQueued:
		s.finalizeLocked(j, StatusCancelled, "cancelled before start")
		st := j.status
		s.mu.Unlock()
		return st, nil
	case StatusRunning:
		cancel := j.cancel
		st := j.status
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return st, nil
	case StatusCancelled:
		st := j.status
		s.mu.Unlock()
		return st, ErrPlanCancelled
	default:
		st := j.status
		s.mu.Unlock()
		return st, ErrPlanFinished
	}
}

// List returns all retained plans in submission order.
func (s *Service) List() []PlanStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PlanStatus, 0, len(s.order))
	for _, id := range s.order {
		if j := s.records[id]; j != nil {
			out = append(out, j.status)
		}
	}
	return out
}

// InvalidateService drops cached plans using the named service (see
// PlanCache.InvalidateService) and returns the count.
func (s *Service) InvalidateService(name string) int {
	n := s.cache.InvalidateService(name)
	s.mInvalidations.Add(int64(n))
	return n
}

// Close stops accepting plans, cancels running ones, drains the queue
// (queued plans finalize as cancelled), and waits for the workers.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	var cancels []context.CancelFunc
	for _, j := range s.records {
		if j.status.Status == StatusRunning && j.cancel != nil {
			cancels = append(cancels, j.cancel)
		}
	}
	s.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	s.wg.Wait()
}

// ServiceStats is the planner block of /api/v1/stats.
type ServiceStats struct {
	Workers  int `json:"workers"`
	Queued   int `json:"queued"`
	InFlight int `json:"inFlight"`

	Submitted int64 `json:"submitted"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`

	CacheHits          int64 `json:"cacheHits"`
	CacheMisses        int64 `json:"cacheMisses"`
	CacheInvalidations int64 `json:"cacheInvalidations"`
	CacheEntries       int   `json:"cacheEntries"`

	P50PlanSeconds float64 `json:"p50PlanSeconds"`
	P99PlanSeconds float64 `json:"p99PlanSeconds"`
}

// Stats snapshots the service counters and plan-latency quantiles (over a
// sliding window of the most recent plans).
func (s *Service) Stats() ServiceStats {
	hits, misses, invalidations := s.cache.Counters()
	s.mu.Lock()
	st := ServiceStats{
		Workers:            s.workers,
		Queued:             len(s.queue),
		InFlight:           s.inFlight,
		Submitted:          s.submitted,
		Succeeded:          s.succeeded,
		Failed:             s.failed,
		Cancelled:          s.cancelled,
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheInvalidations: invalidations,
	}
	window := make([]float64, 0, s.latCount)
	window = append(window, s.latencies[:s.latCount]...)
	s.mu.Unlock()
	st.CacheEntries = s.cache.Len()
	if len(window) > 0 {
		sort.Float64s(window)
		st.P50PlanSeconds = window[len(window)/2]
		st.P99PlanSeconds = window[min(len(window)-1, len(window)*99/100)]
	}
	return st
}

// finalizeLocked moves a job to a terminal state, records latency, and
// applies the retention bound. Callers hold s.mu.
func (s *Service) finalizeLocked(j *planJob, status Status, errMsg string) {
	j.status.Status = status
	j.status.Error = errMsg
	j.status.Finished = time.Now()
	close(j.done)
	switch status {
	case StatusSucceeded:
		s.succeeded++
		s.mSucceeded.Inc()
	case StatusFailed:
		s.failed++
		s.mFailed.Inc()
	case StatusCancelled:
		s.cancelled++
		s.mCancelled.Inc()
	}
	latency := j.status.Finished.Sub(j.status.Submitted).Seconds()
	s.latencies[s.latPos] = latency
	s.latPos = (s.latPos + 1) % len(s.latencies)
	if s.latCount < len(s.latencies) {
		s.latCount++
	}
	s.hPlanSeconds.Observe(latency)

	s.finished = append(s.finished, j.status.ID)
	for len(s.finished) > retainFinished {
		evict := s.finished[0]
		s.finished = s.finished[1:]
		delete(s.records, evict)
		for i, id := range s.order {
			if id == evict {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
}

// worker consumes queued plans until the queue closes. Its plans run one
// after another in one workspace, which it alone touches.
func (s *Service) worker() {
	defer s.wg.Done()
	ws := newWorkspace(s.cfg.Params.PopulationSize * s.cfg.Params.Smax)
	for j := range s.queue {
		s.run(j, ws)
	}
}

// run executes one plan end to end.
func (s *Service) run(j *planJob, ws *workspace) {
	s.mu.Lock()
	if j.status.Status != StatusQueued {
		// Cancelled while waiting in the queue.
		s.mu.Unlock()
		return
	}
	if s.closed {
		s.finalizeLocked(j, StatusCancelled, ErrServiceClosed.Error())
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.status.Status = StatusRunning
	j.status.Started = time.Now()
	s.inFlight++
	s.gInFlight.Set(float64(s.inFlight))
	s.mu.Unlock()
	defer cancel()

	res, plan, err := s.compute(ctx, j, ws)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.inFlight--
	s.gInFlight.Set(float64(s.inFlight))
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		s.finalizeLocked(j, StatusCancelled, "cancelled while running")
	case err != nil:
		s.finalizeLocked(j, StatusFailed, err.Error())
	default:
		j.status.PDL = plan.PDL
		j.status.Process = plan.Process
		j.status.Tree = plan.Tree
		j.status.Eval = plan.Eval
		j.status.Evaluations = res.Evaluations
		j.status.Generations = len(res.History)
		j.status.Result = res
		if !j.spec.NoCache && !j.spec.TreeOnly {
			s.cache.Put(j.status.Key, plan)
		}
		s.finalizeLocked(j, StatusSucceeded, "")
	}
}

// compute runs the GP for one job: catalog minus exclusions, neighborhood
// seeds for incremental re-plans, then RunContext, and the plan of the
// normalized best tree: unless TreeOnly, with its process description and
// PDL. The run happens in ws.
func (s *Service) compute(ctx context.Context, j *planJob, ws *workspace) (*Result, PlanResult, error) {
	excluded := make(map[string]bool, len(j.spec.Excluded))
	for _, n := range j.spec.Excluded {
		excluded[n] = true
	}
	catalog := s.cfg.Catalog
	if len(excluded) > 0 {
		catalog = workflow.NewCatalog()
		for _, svc := range s.cfg.Catalog.Services() {
			if !excluded[svc.Name] {
				catalog.Add(svc)
			}
		}
	}
	problem := &workflow.Problem{
		Name:    "plan-" + j.status.ID,
		Initial: workflow.NewState(j.spec.Initial...),
		Goal:    workflow.NewGoal(j.spec.Goal...),
		Catalog: catalog,
	}
	gp, err := New(problem, j.params)
	if err != nil {
		return nil, PlanResult{}, err
	}
	gp.ws = ws
	gp.SetTelemetry(s.tel)
	traceID := j.spec.TaskID
	if traceID == "" {
		traceID = j.status.ID
	}
	tr := s.tel.TaskTrace(traceID)
	gp.SetTrace(tr)
	// The plan span joins the caller's trace (via the propagated traceparent)
	// or the task trace's root; GP generation events nest under it.
	var planParent telemetry.SpanContext
	if sc, ok := telemetry.ParseTraceparent(j.spec.Traceparent); ok {
		planParent = sc
	}
	planSpan, endPlan := tr.Begin(planParent, "plan", j.status.ID)
	gp.SetTraceContext(planSpan)
	gp.failed, gp.excluded, gp.catalog = j.spec.Failed, excluded, s.cfg.Catalog
	res, err := gp.RunContext(ctx)
	if err != nil {
		endPlan("failed: " + err.Error())
		return nil, PlanResult{}, err
	}
	endPlan(fmt.Sprintf("%d evaluations over %d generations", res.Evaluations, len(res.History)))
	tree := res.Best.Tree.Normalize()
	plan := PlanResult{Tree: tree.String(), Eval: res.Best.Eval, Services: tree.Services()}
	if j.spec.TreeOnly {
		return res, plan, nil
	}
	if plan.Process, err = plantree.ToProcess("planned", tree); err != nil {
		return nil, PlanResult{}, fmt.Errorf("planner: best tree does not convert: %w", err)
	}
	if plan.PDL, err = pdl.Format(tree); err != nil {
		return nil, PlanResult{}, err
	}
	return res, plan, nil
}
