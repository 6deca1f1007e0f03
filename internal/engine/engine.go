// Package engine is the durable enactment engine: the execution-service
// layer the workflow-platform literature places between the user interface
// and the coordination service. It owns the task lifecycle end-to-end —
//
//   - a bounded admission queue with priority classes, weighted fair
//     queueing across tenants (deficit round-robin within each class, see
//     internal/fairq), and backpressure (submissions beyond capacity fail
//     fast with ErrQueueFull, which the HTTP layer surfaces as 429 +
//     Retry-After);
//   - per-tenant admission quotas — max queued, max in-flight, token-bucket
//     submit rate — with distinct ErrTenantQueueFull / ErrTenantRateLimited
//     rejections and per-tenant accounting (see tenant.go);
//   - a pool of N coordinator workers draining the queue, so concurrent
//     case enactments are capped and scheduled fairly instead of spawning
//     one goroutine per request;
//   - a write-ahead task journal: append-only lifecycle records persisted
//     through the persistent storage service, with snapshot compaction
//     (see journal.go);
//   - crash recovery: Recover replays the journal, re-enqueues tasks that
//     were accepted but never started, and resumes started tasks from their
//     latest coordination checkpoint (see recover.go).
//
// The engine records engine.* metrics and per-task queue/attempt spans into
// the telemetry registry (OBSERVABILITY.md lists them all).
package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coordination"
	"repro/internal/fairq"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// Typed engine errors. The HTTP layer maps them to status codes.
var (
	// ErrQueueFull signals admission backpressure: the bounded queue is at
	// capacity and the submission was rejected.
	ErrQueueFull = errors.New("engine: admission queue full")
	// ErrTenantQueueFull rejects a submission over its tenant's MaxQueued
	// quota while the shared queue still has room.
	ErrTenantQueueFull = errors.New("engine: tenant queue quota exceeded")
	// ErrTenantRateLimited rejects a submission with no token left in its
	// tenant's submit-rate bucket.
	ErrTenantRateLimited = errors.New("engine: tenant rate limited")
	// ErrUnknownTask is returned for task IDs the engine has never seen.
	ErrUnknownTask = errors.New("engine: unknown task")
	// ErrEvicted is returned for finished tasks whose record was dropped by
	// bounded retention (the journal still holds the compacted outcome).
	ErrEvicted = errors.New("engine: task record evicted")
	// ErrDuplicate rejects a submission reusing a known task ID.
	ErrDuplicate = errors.New("engine: duplicate task")
	// ErrFinished rejects cancelling a task that already reached a terminal
	// status.
	ErrFinished = errors.New("engine: task already finished")
	// ErrClosed rejects submissions to a closed engine.
	ErrClosed = errors.New("engine: closed")
)

// Priority is an admission class. Lower values drain first; within a class
// tenants share service by weighted fair queueing (a single tenant reduces
// to plain FIFO).
type Priority int

const (
	PriorityHigh Priority = iota
	PriorityNormal
	PriorityLow
	numPriorities
)

// String returns the wire name of the priority class.
func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityLow:
		return "low"
	default:
		return "normal"
	}
}

// ParsePriority maps a wire name to a class; the empty string means normal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "high":
		return PriorityHigh, nil
	case "", "normal":
		return PriorityNormal, nil
	case "low":
		return PriorityLow, nil
	}
	return PriorityNormal, fmt.Errorf("engine: unknown priority %q (want high, normal, or low)", s)
}

// Task status values.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusCompleted = "completed"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// terminal reports whether a status is final.
func terminal(status string) bool {
	return status == StatusCompleted || status == StatusFailed || status == StatusCancelled
}

// Defaults applied by New for zero Config fields.
const (
	DefaultQueueCapacity  = 256
	DefaultRetainFinished = 1024
)

// storageAPI is the slice of the storage layer the engine journals through;
// store.Store and *services.Storage both satisfy it. On durable backends
// Put returns only after the write is fsynced (group-committed); Kind tells
// those ("file") from the one whose writes never wait ("mem").
type storageAPI interface {
	Kind() string
	Put(key string, value []byte) (int, error)
	PutAsync(key string, value []byte) (int, error)
	Replace(key string, value []byte) (int, error)
	Get(key string, version int) (value []byte, ver int, found bool, err error)
	Keys(prefix string) []string
	Delete(key string) error
}

// Config wires an engine.
type Config struct {
	// Coordinator enacts the tasks; required.
	Coordinator *coordination.Coordinator
	// Storage persists the task journal; required.
	Storage storageAPI
	// Telemetry receives engine.* metrics and queue/attempt spans; nil
	// disables instrumentation.
	Telemetry *telemetry.Registry
	// Logger receives structured lifecycle logs (admission, attempts,
	// terminal transitions, recovery); nil means silent.
	Logger *slog.Logger
	// Workers is the coordinator worker-pool size — the cap on concurrent
	// enactments. 0 means GOMAXPROCS.
	Workers int
	// QueueCapacity bounds the admission queue (queued tasks, not running
	// ones). 0 means DefaultQueueCapacity.
	QueueCapacity int
	// RetainFinished bounds how many finished task records stay queryable;
	// older ones are evicted (lookups then return ErrEvicted). 0 means
	// DefaultRetainFinished.
	RetainFinished int
	// Tenants sets per-tenant fair-share weights and admission quotas,
	// keyed by tenant ID (the empty tenant is recorded as DefaultTenant).
	Tenants map[string]TenantConfig
	// TenantDefaults applies to tenants absent from Tenants. The zero value
	// means weight 1 and no quotas.
	TenantDefaults TenantConfig
}

// Submission is one task handed to the engine.
type Submission struct {
	Task *workflow.Task
	// Policy is the fault-tolerance policy; nil means the coordinator's
	// defaults.
	Policy *coordination.Policy
	// Priority is the admission class; the zero value is PriorityHigh, so
	// API layers should parse explicitly (ParsePriority maps "" to normal).
	Priority Priority
	// Tenant attributes the task to a submitting principal for fair
	// queueing, quota enforcement, and accounting. Empty means
	// DefaultTenant.
	Tenant string
	// Traceparent is an inbound W3C trace context (a client's traceparent
	// header, a parent task). When valid, the task's root span joins that
	// trace instead of starting a fresh one.
	Traceparent string
	// RequestID is the HTTP request ID that carried the submission; it is
	// stamped on the root span and admission logs so traces, logs, and
	// responses correlate on one ID.
	RequestID string
}

// TaskStatus is a point-in-time public view of one task record.
type TaskStatus struct {
	ID       string
	Status   string
	Priority Priority
	Tenant   string
	Seq      int64
	Attempt  int
	// Submitted is the admission instant in this process: for a task
	// re-queued by journal replay it is the re-admission instant, because
	// the original wall-clock submit time is not journaled.
	Submitted time.Time
	Finished  time.Time
	// QueuePosition is the 1-based position among queued tasks (all
	// classes, drain order); 0 once the task left the queue.
	QueuePosition int
	// QueueWait is the real time the task spent queued, in seconds (set
	// when it starts running).
	QueueWait float64
	Error     string
	// Reason refines a terminal status with the constraint that ended the
	// task ("budget_exceeded", "deadline_missed"); empty otherwise.
	Reason string
	// Budget, Deadline, and HardDeadline echo the case's scheduling
	// constraints (from the durable envelope, so they are visible from
	// admission on, not only once a report exists).
	Budget       float64
	Deadline     float64
	HardDeadline bool
	Report       *coordination.Report
	Policy       coordination.Policy
}

// Stats is the queue/worker snapshot behind GET /api/v1/queue.
type Stats struct {
	Capacity      int            `json:"capacity"`
	Depth         int            `json:"depth"`
	DepthByClass  map[string]int `json:"depthByClass"`
	DepthByTenant map[string]int `json:"depthByTenant,omitempty"`
	Tenants       int            `json:"tenants"`
	Workers       int            `json:"workers"`
	// Busy counts workers holding a task, from dequeue until they hand its
	// terminal commit off or have made it inline; Running counts tasks whose
	// status is running, from dequeue to the terminal transition. A handed-off
	// commit keeps its task running but frees the worker, so Running can
	// reach 2×Workers.
	Busy          int   `json:"busy"`
	Running       int   `json:"running"`
	Accepted      int64 `json:"accepted"`
	Rejected      int64 `json:"rejected"`
	RetryAfterSec int   `json:"retryAfterSec"`
}

// record is the engine's internal per-task state.
type record struct {
	id        string
	seq       int64
	priority  Priority
	tenant    string
	status    string
	attempt   int
	submitted time.Time
	started   time.Time
	finished  time.Time
	queueWait float64
	err       string
	reason    string
	report    *coordination.Report
	policy    coordination.Policy
	// pol is the policy as submitted (nil: defaults), which is what the
	// coordinator is handed.
	pol *coordination.Policy
	// budget, deadline and hardDeadline are the case's scheduling
	// constraints, copied at admission and at recovery so the status view
	// reads them without the task.
	budget, deadline float64
	hardDeadline     bool
	// task is the live submission; a recovered record leaves it nil and
	// rebuilds it from env, the journaled envelope (the only copy that
	// survived the crash), which a live one does not have. Both, with resume,
	// trace and endQueue, are dropped at the terminal transition: a finished
	// record keeps only what its status view reads.
	task *workflow.Task
	env  *TaskEnvelope
	// admitting marks a record whose write-ahead journal append is still in
	// flight (Submit holds no lock across the fsync); it is reserved in
	// e.records but not yet in the queue. preempt asks the admitting Submit
	// to finish the task as cancelled instead of enqueueing it (set by a
	// Cancel that raced the admission).
	admitting bool
	preempt   bool
	// resume holds the checkpoint snapshot a recovered task continues from;
	// nil for fresh runs.
	resume *coordination.CheckpointData
	// runCtx/cancel scope the running enactment; nil unless running. The
	// worker calls cancel when the enactment returns, which releases the
	// context from e.baseCtx.
	runCtx context.Context
	cancel context.CancelFunc
	// Trace state: the task's trace, its root span context, and the pending
	// end funcs for the root and queue_wait duration spans. All are set
	// before the record becomes poppable (Submit before fq.Push, or
	// enqueueRecovered) and are nil-safe no-ops when telemetry is off.
	trace    *telemetry.TaskTrace
	rootCtx  telemetry.SpanContext
	endRoot  func(string) float64
	endQueue func(string) float64
}

// Engine is the durable enactment engine. Create with New, then Start the
// worker pool; Close stops it.
type Engine struct {
	cfg   Config
	coord *coordination.Coordinator
	store storageAPI
	tel   *telemetry.Registry
	log   *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond
	fq      *fairq.Queue[*record]
	tenants map[string]*tenantState
	queued  int
	records map[string]*record
	// finished is the eviction ring: finished task IDs in completion order.
	finished []string
	evicted  map[string]bool
	closed   bool
	seq      int64

	epoch   time.Time
	wg      sync.WaitGroup
	started atomic.Bool
	busy    atomic.Int64
	running atomic.Int64

	mAccepted, mRejected                 *telemetry.Counter
	mCompleted, mFailed, mCancelled      *telemetry.Counter
	mRequeued, mResumed, mRestarted      *telemetry.Counter
	mJournalRecords, mJournalCompactions *telemetry.Counter
	mHandoffs                            *telemetry.Counter
	gDepth, gBusy                        *telemetry.Gauge
	hWait, hRun                          *telemetry.Histogram
	hStageWait, hStageEnact              *telemetry.Histogram
	hStageJournal                        *telemetry.Histogram
}

// New builds an engine over a coordinator and the persistent storage
// service. Call Start to spin up the worker pool.
func New(cfg Config) (*Engine, error) {
	if cfg.Coordinator == nil || cfg.Storage == nil {
		return nil, fmt.Errorf("engine: coordinator and storage are required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = DefaultQueueCapacity
	}
	if cfg.RetainFinished <= 0 {
		cfg.RetainFinished = DefaultRetainFinished
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.NopLogger()
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:        cfg,
		coord:      cfg.Coordinator,
		store:      cfg.Storage,
		tel:        cfg.Telemetry,
		log:        cfg.Logger,
		baseCtx:    ctx,
		baseCancel: cancel,
		records:    make(map[string]*record),
		tenants:    make(map[string]*tenantState),
		evicted:    make(map[string]bool),
		epoch:      time.Now(),
	}
	e.fq = fairq.New[*record](int(numPriorities), e.weight)
	e.cond = sync.NewCond(&e.mu)
	tel := cfg.Telemetry
	e.mAccepted = tel.Counter("engine.admission.accepted")
	e.mRejected = tel.Counter("engine.admission.rejected")
	e.mCompleted = tel.Counter("engine.tasks.completed")
	e.mFailed = tel.Counter("engine.tasks.failed")
	e.mCancelled = tel.Counter("engine.tasks.cancelled")
	e.mRequeued = tel.Counter("engine.recovery.requeued")
	e.mResumed = tel.Counter("engine.recovery.resumed")
	e.mRestarted = tel.Counter("engine.recovery.restarted")
	e.mJournalRecords = tel.Counter("engine.journal.records")
	e.mJournalCompactions = tel.Counter("engine.journal.compactions")
	e.mHandoffs = tel.Counter("engine.journal.handoffs")
	e.gDepth = tel.Gauge("engine.queue.depth")
	e.gBusy = tel.Gauge("engine.workers.busy")
	e.hWait = tel.Histogram("engine.queue.wait.seconds", []float64{0.001, 0.01, 0.1, 1, 10, 60, 300})
	e.hRun = tel.Histogram("engine.run.seconds", []float64{0.001, 0.01, 0.1, 1, 10, 60, 300})
	// Stage latency histograms are derived from span durations, so metrics
	// and trace trees attribute the same lifecycle stages (exemplars carry
	// the trace ID of the latest observation).
	e.hStageWait = tel.Histogram("trace.stage.queue_wait.seconds", []float64{0.001, 0.01, 0.1, 1, 10, 60, 300})
	e.hStageEnact = tel.Histogram("trace.stage.enact.seconds", []float64{0.001, 0.01, 0.1, 1, 10, 60, 300})
	e.hStageJournal = tel.Histogram("trace.stage.journal_commit.seconds", []float64{0.0001, 0.001, 0.01, 0.1, 1, 10})
	return e, nil
}

// Start launches the worker pool. Idempotent. On a durable store each worker
// is paired with a companion that runs the terminal commits it hands off
// (see worker); a mem: store never waits on a write, so it gets none.
func (e *Engine) Start() {
	if e.started.Swap(true) {
		return
	}
	durable := e.store.Kind() != "mem"
	e.wg.Add(e.cfg.Workers)
	for i := 0; i < e.cfg.Workers; i++ {
		var commits chan outcome
		if durable {
			commits = make(chan outcome)
			e.wg.Add(1)
			go e.companion(commits)
		}
		go e.worker(commits)
	}
}

// Close stops the engine: no further admissions, in-flight enactments are
// cancelled, and the worker pool drains. Queued tasks that never started are
// cancelled too (their journals record it, so a restart does not resurrect
// deliberately stopped work). The companions' terminal commits are done when
// Close returns, so the store may be closed after it.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	drained := e.fq.Drain()
	for _, rec := range drained {
		e.tenantLocked(rec.tenant).queued--
	}
	e.queued = 0
	e.cond.Broadcast()
	e.mu.Unlock()

	e.baseCancel()
	for _, rec := range drained {
		e.finish(rec, StatusCancelled, "", nil, "engine closed before the task started")
	}
	e.gDepth.Set(0)
	if e.started.Load() {
		e.wg.Wait()
	}
}

// Ready reports whether the engine is accepting work: the worker pool has
// started and Close has not been called. The /readyz probe serves this.
func (e *Engine) Ready() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.started.Load() && !e.closed
}

// Submit admits a task: the accepted record is journaled (write-ahead), the
// task enters its tenant's FIFO within its priority class, and the returned
// status carries the queue position. Fails fast with ErrQueueFull beyond the
// shared capacity, ErrTenantQueueFull / ErrTenantRateLimited beyond the
// tenant's quotas, ErrDuplicate for reused IDs, or the task's own validation
// error.
func (e *Engine) Submit(sub Submission) (TaskStatus, error) {
	if sub.Task == nil {
		return TaskStatus{}, fmt.Errorf("engine: nil task")
	}
	if err := sub.Task.Validate(); err != nil {
		return TaskStatus{}, err
	}
	if err := sub.Policy.Validate(); err != nil {
		return TaskStatus{}, err
	}
	if sub.Priority < PriorityHigh || sub.Priority >= numPriorities {
		return TaskStatus{}, fmt.Errorf("engine: invalid priority %d", sub.Priority)
	}
	resolved := e.coord.ResolvePolicy(sub.Policy)

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return TaskStatus{}, ErrClosed
	}
	id := sub.Task.ID
	if _, dup := e.records[id]; dup || e.evicted[id] {
		e.mu.Unlock()
		return TaskStatus{}, fmt.Errorf("%w: %s", ErrDuplicate, id)
	}
	tenant := canonicalTenant(sub.Tenant)
	ts := e.tenantLocked(tenant)
	if e.queued >= e.cfg.QueueCapacity {
		ts.rejectedQueue++
		ts.mRejectedQueue.Inc()
		e.mu.Unlock()
		e.mRejected.Inc()
		e.log.Warn("task rejected: admission queue full",
			slog.String("task", id), slog.Int("capacity", e.cfg.QueueCapacity))
		return TaskStatus{}, fmt.Errorf("%w: capacity %d", ErrQueueFull, e.cfg.QueueCapacity)
	}
	if ts.cfg.MaxQueued > 0 && ts.queued >= ts.cfg.MaxQueued {
		ts.rejectedQueue++
		ts.mRejectedQueue.Inc()
		e.mu.Unlock()
		e.mRejected.Inc()
		e.log.Warn("task rejected: tenant queue quota exceeded",
			slog.String("task", id), slog.String("tenant", tenant),
			slog.Int("maxQueued", ts.cfg.MaxQueued))
		return TaskStatus{}, fmt.Errorf("%w: tenant %s at %d queued", ErrTenantQueueFull, tenant, ts.cfg.MaxQueued)
	}
	// Rate is checked last so a submission doomed by a queue bound does not
	// burn a token.
	if ts.bucket != nil && !ts.bucket.Allow(e.now()) {
		ts.rejectedRate++
		ts.mRejectedRate.Inc()
		e.mu.Unlock()
		e.mRejected.Inc()
		e.log.Warn("task rejected: tenant rate limited",
			slog.String("task", id), slog.String("tenant", tenant),
			slog.Float64("ratePerSec", ts.cfg.RatePerSec))
		return TaskStatus{}, fmt.Errorf("%w: tenant %s over %g/s", ErrTenantRateLimited, tenant, ts.cfg.RatePerSec)
	}
	e.seq++
	c := sub.Task.Case // Validate requires one
	rec := &record{
		id:           id,
		seq:          e.seq,
		priority:     sub.Priority,
		tenant:       tenant,
		status:       StatusQueued,
		admitting:    true,
		submitted:    time.Now(),
		policy:       resolved,
		pol:          sub.Policy,
		budget:       c.Budget,
		deadline:     c.Deadline,
		hardDeadline: c.HardDeadline,
		task:         sub.Task,
	}
	// Reserve the ID and the queue slot, then release the lock for the
	// durable append: concurrent admissions must not serialize behind one
	// fsync — unlocked, they coalesce into one group-commit batch.
	e.records[id] = rec
	e.queued++
	ts.queued++
	e.mu.Unlock()

	// Open the distributed trace: the root span covers admission through the
	// terminal transition, joining an inbound traceparent (client header,
	// parent task) when one was carried in.
	tr := e.tel.TaskTrace(id)
	var rootAttrs map[string]string
	if sub.RequestID != "" {
		rootAttrs = map[string]string{"request.id": sub.RequestID}
	}
	rec.trace = tr
	rec.rootCtx, rec.endRoot = tr.StartRoot("task", id, sub.Traceparent, rootAttrs)

	// Write-ahead: the accepted record is durable before the task is
	// visible in the queue, so a crash between here and the first worker
	// pickup still re-enqueues it on recovery.
	_, endJournal := tr.Begin(rec.rootCtx, "journal_commit", "accepted")
	jerr := e.journalAppend(JournalRecord{
		Event: EventAccepted, TaskID: id, Seq: rec.seq,
		Priority: int(rec.priority), Tenant: rec.tenant, task: sub.Task, policy: sub.Policy,
	})
	e.hStageJournal.ObserveTraced(endJournal("write-ahead accepted record"), rec.rootCtx.TraceID)
	// The queue_wait span opens here — before the record becomes poppable —
	// and ends when a worker dequeues it in run().
	_, rec.endQueue = tr.Begin(rec.rootCtx, "queue_wait", "")

	e.mu.Lock()
	rec.admitting = false
	if jerr != nil {
		// The acceptance never became durable: release the reservation and
		// surface the storage failure. (Close zeroes e.queued when it drains
		// the queue, so guard the shared counter.)
		delete(e.records, id)
		if e.queued > 0 {
			e.queued--
		}
		ts.queued--
		ts.gQueued.Set(float64(ts.queued))
		e.mu.Unlock()
		e.mRejected.Inc()
		rec.endRoot("journal append failed: " + jerr.Error())
		e.log.Error("task rejected: journal append failed",
			slog.String("task", id), slog.String("error", jerr.Error()))
		return TaskStatus{}, jerr
	}
	// The acceptance is durable: count it before either outcome below, so a
	// task a racing Cancel finishes still balances the tenant's books.
	ts.accepted++
	ts.mAccepted.Inc()
	e.mAccepted.Inc()
	if rec.preempt || e.closed {
		// A Cancel (or Close) raced the admission. The accepted record is
		// durable, so finish the task as cancelled — the terminal record
		// keeps recovery from resurrecting it.
		if e.queued > 0 {
			e.queued--
		}
		ts.queued--
		ts.gQueued.Set(float64(ts.queued))
		closed := e.closed && !rec.preempt
		e.mu.Unlock()
		reason := "cancelled during admission"
		if closed {
			reason = "engine closed before the task started"
		}
		e.finish(rec, StatusCancelled, "", nil, reason)
		if closed {
			return TaskStatus{}, ErrClosed
		}
		st, _ := e.Task(id)
		return st, nil
	}
	e.fq.Push(int(rec.priority), tenant, rec)
	ts.gQueued.Set(float64(ts.queued))
	pos := e.positionLocked(rec)
	depth := e.queued
	e.cond.Signal()
	status := e.statusLocked(rec)
	e.mu.Unlock()

	e.gDepth.Set(float64(depth))
	tr.Span("queue", "", fmt.Sprintf("admitted at position %d (%s priority)", pos, rec.priority))
	logAttrs := []any{
		slog.String("task", id), slog.String("priority", rec.priority.String()),
		slog.Int("position", pos), slog.Int("depth", depth),
	}
	if sub.RequestID != "" {
		logAttrs = append(logAttrs, slog.String("requestId", sub.RequestID))
	}
	if rec.rootCtx.Valid() {
		logAttrs = append(logAttrs, slog.String("traceId", rec.rootCtx.TraceID.String()))
	}
	e.log.Info("task admitted", logAttrs...)
	return status, nil
}

// enqueueRecovered re-admits a recovered task, bypassing the capacity check:
// it was accepted in a previous life, so the admission promise stands even
// if the queue is momentarily over capacity.
func (e *Engine) enqueueRecovered(rec *record) {
	// Trace state did not survive the crash, so a recovered task gets a
	// fresh local root (marked as recovered) rather than rejoining the
	// original distributed trace.
	tr := e.tel.TaskTrace(rec.id)
	rec.trace = tr
	rec.rootCtx, rec.endRoot = tr.StartRoot("task", rec.id, "", map[string]string{"recovered": "true"})
	_, rec.endQueue = tr.Begin(rec.rootCtx, "queue_wait", "")
	e.mu.Lock()
	rec.status = StatusQueued
	// Queue wait is measured from re-admission: the previous life's submit
	// instant is not journaled.
	rec.submitted = time.Now()
	rec.tenant = canonicalTenant(rec.tenant)
	e.records[rec.id] = rec
	if rec.seq > e.seq {
		e.seq = rec.seq
	}
	// Recovery feeds tasks back in journal-sequence order (Recover sorts by
	// seq), so each tenant's FIFO comes back in its original order.
	e.fq.Push(int(rec.priority), rec.tenant, rec)
	e.queued++
	ts := e.tenantLocked(rec.tenant)
	ts.queued++
	ts.gQueued.Set(float64(ts.queued))
	depth := e.queued
	e.cond.Signal()
	e.mu.Unlock()
	e.gDepth.Set(float64(depth))
}

// next blocks until a runnable task is available or the engine closes; the
// fair queue picks the next tenant (highest non-empty priority class,
// deficit round-robin within it), skipping tenants at their in-flight cap,
// and the popped record transitions to running.
func (e *Engine) next() *record {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if rec, ok := e.fq.Pop(e.eligible); ok {
			e.queued--
			rec.status = StatusRunning
			rec.attempt++
			rec.started = time.Now()
			rec.queueWait = rec.started.Sub(rec.submitted).Seconds()
			ts := e.tenantLocked(rec.tenant)
			ts.queued--
			ts.running++
			e.running.Add(1)
			ts.waitSum += rec.queueWait
			ts.waitCount++
			ts.hWait.Observe(rec.queueWait)
			ts.gQueued.Set(float64(ts.queued))
			ts.gRunning.Set(float64(ts.running))
			ctx, cancel := context.WithCancel(e.baseCtx)
			rec.cancel = cancel
			rec.runCtx = ctx
			e.gDepth.Set(float64(e.queued))
			return rec
		}
		if e.closed {
			return nil
		}
		// Either the queue is empty or every queued tenant is at its
		// in-flight cap; finish() broadcasts when capacity frees up.
		e.cond.Wait()
	}
}

// outcome is how one attempt ended: the arguments of its terminal
// transition, as a worker hands them to its companion.
type outcome struct {
	rec                     *record
	status, reason, errText string
	report                  *coordination.Report
}

// worker is one coordinator worker: it drains the queue until Close. After
// each enactment it either runs the task's terminal commit itself or, when
// commits is non-nil (a durable store) and more work is queued, hands it to
// its companion and takes the next task while the commit waits on the disk.
// A worker's tasks turn terminal in its dequeue order: the unbuffered send
// completes only once the companion is done with the previous hand-off, and
// before finishing inline the worker waits the same way (an empty outcome).
func (e *Engine) worker(commits chan<- outcome) {
	defer e.wg.Done()
	if commits != nil {
		defer close(commits)
	}
	held := false // the companion may still be committing this worker's last task
	for {
		rec := e.next()
		if rec == nil {
			return
		}
		e.gBusy.Set(float64(e.busy.Add(1)))
		out := e.run(rec)
		if commits != nil && e.workQueued() {
			e.mHandoffs.Inc()
			commits <- out
			held = true
			e.gBusy.Set(float64(e.busy.Add(-1)))
			// The send readied the companion into this P's next slot, where
			// it waits until the worker blocks; with every core enacting,
			// the commit would not start before the next hand-off. Yield so
			// it reaches the disk now.
			runtime.Gosched()
			continue
		}
		if held {
			commits <- outcome{}
			held = false
		}
		e.finish(out.rec, out.status, out.reason, out.report, out.errText)
		e.gBusy.Set(float64(e.busy.Add(-1)))
	}
}

// companion runs the terminal commits its worker hands off, one at a time,
// until the worker closes the channel.
func (e *Engine) companion(commits <-chan outcome) {
	defer e.wg.Done()
	for out := range commits {
		if out.rec != nil {
			e.finish(out.rec, out.status, out.reason, out.report, out.errText)
		}
	}
}

// workQueued reports whether a task waits in the queue.
func (e *Engine) workQueued() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queued > 0
}

// run executes one attempt of a task: journal "started", enact (fresh or
// resumed from checkpoint) and release the run context. The caller makes the
// terminal transition from what it returns.
func (e *Engine) run(rec *record) outcome {
	// The started record rides the log asynchronously: its durability is not
	// load-bearing (a crash mid-run re-enqueues the task from the accepted
	// record either way; the record only tells "restarted" from "requeued"),
	// so it costs no fsync of its own — it is durable with the next durable
	// write, which is this task's first checkpoint or terminal snapshot at
	// the latest.
	if err := e.journalAppendAsync(JournalRecord{Event: EventStarted, TaskID: rec.id, Attempt: rec.attempt}); err != nil {
		e.log.Error("journal append failed for started event",
			slog.String("task", rec.id), slog.String("error", err.Error()))
	}
	e.hWait.Observe(rec.queueWait)
	if rec.endQueue != nil {
		wait := rec.endQueue(fmt.Sprintf("dequeued for attempt %d", rec.attempt))
		e.hStageWait.ObserveTraced(wait, rec.rootCtx.TraceID)
		rec.endQueue = nil
	}
	rec.trace.Span("attempt", "", fmt.Sprintf("attempt %d after %.3fs queued", rec.attempt, rec.queueWait))
	e.log.Info("enactment attempt started",
		slog.String("task", rec.id), slog.Int("attempt", rec.attempt),
		slog.Float64("queueWaitSec", rec.queueWait))

	// The enact span scopes the whole coordinator run; its context rides
	// rec.runCtx so scheduling and planning spans nest under it.
	enactCtx, endEnact := rec.trace.Begin(rec.rootCtx, "enact", "")
	ctx := telemetry.ContextWithSpan(rec.runCtx, enactCtx)
	var report *coordination.Report
	var err error
	if rec.resume != nil {
		report, err = e.coord.ResumeContext(ctx, rec.resume, rec.pol)
	} else if rec.task != nil { // validated by Submit
		report, err = e.coord.RunValidated(ctx, rec.task, rec.pol)
	} else { // recovered: rebuild from the durable envelope
		var task *workflow.Task
		if task, err = rec.env.task(); err == nil {
			report, err = e.coord.RunTaskContext(ctx, task, rec.pol)
		}
	}
	rec.cancel()
	e.hRun.Observe(time.Since(rec.started).Seconds())
	e.hStageEnact.ObserveTraced(endEnact(fmt.Sprintf("attempt %d", rec.attempt)), rec.rootCtx.TraceID)

	out := outcome{rec: rec, status: StatusCompleted, reason: coordination.ConstraintReason(err), report: report}
	switch {
	case report != nil && report.Cancelled:
		out.status = StatusCancelled
	case err != nil:
		out.status = StatusFailed
	}
	if err != nil {
		out.errText = err.Error()
	}
	return out
}

// retire appends a finished task to the retention window and evicts the
// oldest beyond RetainFinished: their lookups answer ErrEvicted. Callers hold
// e.mu.
func (e *Engine) retire(id string) {
	e.finished = append(e.finished, id)
	for len(e.finished) > e.cfg.RetainFinished {
		oldest := e.finished[0]
		e.finished = e.finished[1:]
		delete(e.records, oldest)
		e.evicted[oldest] = true
	}
}

// finish records a terminal transition: record update, retention eviction,
// metrics, and one journal write. The terminal snapshot — carrying the
// status, attempt, error, constraint reason (budget_exceeded,
// deadline_missed) and the case's budget and deadlines — IS the terminal
// record; compacting straight to it costs a single durable wait where a
// terminal append followed by a Delete+Put compaction used to cost three.
func (e *Engine) finish(rec *record, status, reason string, report *coordination.Report, errText string) {
	_, endCompact := rec.trace.Begin(rec.rootCtx, "journal_commit", "terminal")
	if err := e.compact(JournalRecord{
		TaskID: rec.id, Seq: rec.seq, Attempt: rec.attempt,
		Priority: int(rec.priority), Tenant: rec.tenant,
		Status: status, Error: errText, Reason: reason,
		Budget: rec.budget, Deadline: rec.deadline, HardDeadline: rec.hardDeadline,
	}); err != nil {
		e.log.Error("journal compaction failed",
			slog.String("task", rec.id), slog.String("error", err.Error()))
	}
	e.hStageJournal.ObserveTraced(endCompact("terminal snapshot"), rec.rootCtx.TraceID)
	if rec.endRoot != nil {
		rec.endRoot(status)
		rec.endRoot = nil
	}

	e.mu.Lock()
	ts := e.tenantLocked(rec.tenant)
	if rec.status == StatusRunning {
		e.running.Add(-1)
		ts.running--
		ts.gRunning.Set(float64(ts.running))
		run := time.Since(rec.started).Seconds()
		ts.runSum += run
		ts.runCount++
		ts.hRun.Observe(run)
	}
	rec.status = status
	rec.err = errText
	rec.reason = reason
	rec.report = report
	rec.finished = time.Now()
	rec.cancel = nil
	rec.runCtx = nil
	rec.task, rec.env, rec.resume = nil, nil, nil
	rec.trace, rec.endQueue = nil, nil
	if report != nil && report.TotalCost > 0 {
		// Per-tenant spend accrues at the terminal transition, so a crash
		// never double-charges: replayed work re-derives its cost from the
		// resumed report, which already starts from the checkpointed spend.
		ts.spent += report.TotalCost
		ts.gSpent.Set(ts.spent)
	}
	switch status {
	case StatusCompleted:
		ts.completed++
		ts.mCompleted.Inc()
	case StatusFailed:
		ts.failed++
		ts.mFailed.Inc()
	case StatusCancelled:
		ts.cancelled++
		ts.mCancelled.Inc()
	}
	e.retire(rec.id)
	// Wake workers parked because this tenant was at its in-flight cap.
	e.cond.Broadcast()
	e.mu.Unlock()

	switch status {
	case StatusCompleted:
		e.mCompleted.Inc()
	case StatusFailed:
		e.mFailed.Inc()
	case StatusCancelled:
		e.mCancelled.Inc()
	}
	attrs := []any{slog.String("task", rec.id), slog.String("status", status), slog.Int("attempt", rec.attempt)}
	if errText != "" {
		attrs = append(attrs, slog.String("error", errText))
	}
	if status == StatusFailed {
		e.log.Warn("task finished", attrs...)
	} else {
		e.log.Info("task finished", attrs...)
	}
}

// Cancel stops a task. Queued tasks are cancelled immediately (removed from
// the queue, terminal journal record written); running tasks get their
// context cancelled and unwind asynchronously. Returns the resulting status
// ("cancelled" or "cancelling"), ErrFinished for terminal tasks, ErrEvicted
// or ErrUnknownTask otherwise.
func (e *Engine) Cancel(id string) (string, error) {
	e.mu.Lock()
	rec := e.records[id]
	if rec == nil {
		evicted := e.evicted[id]
		e.mu.Unlock()
		if evicted {
			return "", ErrEvicted
		}
		return "", ErrUnknownTask
	}
	switch rec.status {
	case StatusQueued:
		if rec.admitting {
			// The admission's durable append is still in flight; ask it to
			// finish the task as cancelled instead of enqueueing.
			rec.preempt = true
			e.mu.Unlock()
			return StatusCancelled, nil
		}
		if !e.fq.Remove(int(rec.priority), rec.tenant, func(r *record) bool { return r == rec }) {
			// Out of the queue but not yet terminal: whoever took it out
			// (an earlier Cancel, a cancelled admission, Close) is writing
			// its terminal record; finishing it again would count it twice.
			e.mu.Unlock()
			return StatusCancelled, nil
		}
		e.queued--
		ts := e.tenantLocked(rec.tenant)
		ts.queued--
		ts.gQueued.Set(float64(ts.queued))
		depth := e.queued
		e.mu.Unlock()
		e.gDepth.Set(float64(depth))
		e.finish(rec, StatusCancelled, "", nil, "cancelled while queued")
		return StatusCancelled, nil
	case StatusRunning:
		cancel := rec.cancel
		e.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return "cancelling", nil
	default:
		e.mu.Unlock()
		return "", fmt.Errorf("%w: %s is %s", ErrFinished, id, rec.status)
	}
}

// Task returns the public view of one task, ErrEvicted for records dropped
// by retention, or ErrUnknownTask.
func (e *Engine) Task(id string) (TaskStatus, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec := e.records[id]
	if rec == nil {
		if e.evicted[id] {
			return TaskStatus{}, ErrEvicted
		}
		return TaskStatus{}, ErrUnknownTask
	}
	return e.statusLocked(rec), nil
}

// Tasks returns every live record in admission order.
func (e *Engine) Tasks() []TaskStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]TaskStatus, 0, len(e.records))
	for _, rec := range e.records {
		out = append(out, e.statusLocked(rec))
	}
	sortStatuses(out)
	return out
}

// Stats snapshots the queue and worker pool.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	byClass := make(map[string]int, numPriorities)
	for p := Priority(0); p < numPriorities; p++ {
		byClass[p.String()] = e.fq.ClassLen(int(p))
	}
	byTenant := e.fq.DepthByTenant()
	tenants := len(e.tenants)
	depth := e.queued
	e.mu.Unlock()
	busy := int(e.busy.Load())
	return Stats{
		Capacity:      e.cfg.QueueCapacity,
		Depth:         depth,
		DepthByClass:  byClass,
		DepthByTenant: byTenant,
		Tenants:       tenants,
		Workers:       e.cfg.Workers,
		Busy:          busy,
		Running:       int(e.running.Load()),
		Accepted:      e.mAccepted.Value(),
		Rejected:      e.mRejected.Value(),
		RetryAfterSec: e.retryAfterSeconds(depth),
	}
}

// RetryAfterSeconds estimates how long a rejected client should wait before
// resubmitting: the mean observed run time times the queue backlog per
// worker, clamped to [1, 60] seconds.
func (e *Engine) RetryAfterSeconds() int {
	e.mu.Lock()
	depth := e.queued
	e.mu.Unlock()
	return e.retryAfterSeconds(depth)
}

func (e *Engine) retryAfterSeconds(depth int) int {
	mean := 0.1
	if n := e.hRun.Count(); n > 0 {
		mean = e.hRun.Sum() / float64(n)
	}
	est := int(mean * float64(depth+1) / float64(e.cfg.Workers))
	if est < 1 {
		est = 1
	}
	if est > 60 {
		est = 60
	}
	return est
}

// statusLocked builds the public view; caller holds e.mu.
func (e *Engine) statusLocked(rec *record) TaskStatus {
	s := TaskStatus{
		ID:           rec.id,
		Status:       rec.status,
		Priority:     rec.priority,
		Tenant:       rec.tenant,
		Seq:          rec.seq,
		Attempt:      rec.attempt,
		Submitted:    rec.submitted,
		Finished:     rec.finished,
		QueueWait:    rec.queueWait,
		Error:        rec.err,
		Reason:       rec.reason,
		Budget:       rec.budget,
		Deadline:     rec.deadline,
		HardDeadline: rec.hardDeadline,
		Report:       rec.report,
		Policy:       rec.policy,
	}
	if rec.status == StatusQueued && !rec.admitting {
		s.QueuePosition = e.positionLocked(rec)
	}
	return s
}

// positionLocked returns a queued record's 1-based drain position across all
// classes (an estimate under multi-tenant interleaving, exact for a single
// tenant); caller holds e.mu.
func (e *Engine) positionLocked(rec *record) int {
	return e.fq.Position(int(rec.priority), rec.tenant, func(r *record) bool { return r == rec })
}

// sortStatuses orders by admission sequence (insertion sort; listings are
// small and mostly sorted already).
func sortStatuses(s []TaskStatus) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1].Seq > s[j].Seq; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}
