// Package core assembles the intelligent grid environment of Figure 1: the
// agent platform, the simulated grid with its application containers, the
// core services (the information, brokerage, monitoring, storage and
// ontology agents; matchmaking and simulation as libraries), the planning
// service, and the coordination service — behind one Environment value with
// a small API: Plan a problem, Submit a task, Archive plans.
//
// This is the facade example applications and command-line tools build on;
// everything underneath is reachable for scenarios that need to inject
// failures or inspect service state.
package core

import (
	"context"
	"fmt"
	"log/slog"

	"repro/internal/agent"
	"repro/internal/coordination"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/kb"
	"repro/internal/planner"
	"repro/internal/planning"
	"repro/internal/services"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// Options configures an Environment. The zero value is completed with
// defaults: a synthetic heterogeneous grid and Table 1 planner settings; the
// service catalog is required.
type Options struct {
	// Grid to run on; nil builds grid.Synthetic(GridConfig).
	Grid *grid.Grid
	// GridConfig is used only when Grid is nil.
	GridConfig *grid.SyntheticConfig

	// Catalog of end-user services; required.
	Catalog *workflow.Catalog

	// Planner holds the GP settings; the zero value means
	// planner.DefaultParams (the paper's Table 1).
	Planner planner.Params

	// PostProcess is the coordination steering hook (see coordination.Config).
	PostProcess func(act *workflow.Activity, produced []*workflow.DataItem, visit int)

	// Checkpoint enables per-activity checkpoints to the storage service.
	Checkpoint bool

	// StoreDSN selects the storage backend behind the storage service and the
	// engine's journal: "mem:" (volatile map) or "file:DIR" (append-only
	// segmented log). Empty means "mem:". Ignored when Store is set.
	StoreDSN string

	// Store injects an already opened backend instead of StoreDSN. The
	// environment takes ownership and closes it on Close.
	Store store.Store

	// Workers sizes the enactment engine's coordinator worker pool — the cap
	// on concurrent case enactments. 0 means GOMAXPROCS.
	Workers int

	// QueueCapacity bounds the engine's admission queue; submissions beyond
	// it fail with engine.ErrQueueFull. 0 means engine.DefaultQueueCapacity.
	QueueCapacity int

	// RetainFinished bounds how many finished task records the engine keeps
	// queryable before evicting the oldest. 0 means
	// engine.DefaultRetainFinished.
	RetainFinished int

	// Tenants sets the engine's per-tenant fair-share weights and admission
	// quotas (max queued, max in-flight, submit rate), keyed by tenant ID.
	Tenants map[string]engine.TenantConfig

	// TenantDefaults applies to tenants absent from Tenants. The zero value
	// means weight 1 and no quotas.
	TenantDefaults engine.TenantConfig

	// Telemetry is the metrics registry threaded through the coordination,
	// planning, and core services; nil builds a fresh one (so every
	// environment is observable by default). Set NoTelemetry to run bare.
	Telemetry *telemetry.Registry

	// Logger is the root structured logger; each layer gets a
	// component-scoped child (component=engine, coordination, monitoring,
	// httpapi). Nil means silent.
	Logger *slog.Logger

	// NoTelemetry disables instrumentation entirely — the hot paths then pay
	// only a nil check per record site. Used by overhead benchmarks.
	NoTelemetry bool
}

// Environment is a fully wired grid environment.
type Environment struct {
	Platform *agent.Platform
	Grid     *grid.Grid
	Services *services.Core
	Planning *planning.Service
	// Planner is the asynchronous planning backend (worker pool + plan
	// cache) the planning agent and the /api/v1/plans resource share.
	Planner     *planner.Service
	Coordinator *coordination.Coordinator
	// Engine is the durable enactment engine: bounded admission queue,
	// coordinator worker pool, write-ahead task journal, crash recovery.
	Engine *engine.Engine
	// Store is the storage backend behind Services.Storage and the engine's
	// journal (selected by Options.StoreDSN); the environment closes it.
	Store   store.Store
	Archive *kb.Archive
	Catalog *workflow.Catalog
	// Telemetry is the monitoring registry every layer records into; nil
	// only when Options.NoTelemetry was set.
	Telemetry *telemetry.Registry
	// Logger is the root structured logger (never nil; a no-op logger when
	// Options.Logger was nil).
	Logger *slog.Logger
}

// NewEnvironment builds and starts an environment.
func NewEnvironment(opts Options) (_ *Environment, err error) {
	if opts.Catalog == nil || opts.Catalog.Len() == 0 {
		return nil, fmt.Errorf("core: a service catalog is required")
	}
	g := opts.Grid
	if g == nil {
		cfg := grid.DefaultSyntheticConfig()
		if opts.GridConfig != nil {
			cfg = *opts.GridConfig
		}
		cfg.Services = opts.Catalog.Names()
		g = grid.Synthetic(cfg)
	}
	params := opts.Planner
	if params.PopulationSize == 0 {
		params = planner.DefaultParams()
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}

	tel := opts.Telemetry
	if tel == nil && !opts.NoTelemetry {
		tel = telemetry.New()
	}
	logger := opts.Logger
	if logger == nil {
		logger = telemetry.NopLogger()
	}

	backend := opts.Store
	if backend == nil {
		dsn := opts.StoreDSN
		if dsn == "" {
			dsn = "mem:"
		}
		backend, err = store.Open(dsn, store.Options{Telemetry: tel})
		if err != nil {
			return nil, err
		}
	}

	platform := agent.NewPlatform()
	var plannerSvc *planner.Service
	defer func() {
		if err == nil {
			return
		}
		if plannerSvc != nil {
			plannerSvc.Close()
		}
		platform.Shutdown()
		backend.Close()
	}()
	coreSvcs, err := services.Bootstrap(platform, g, backend)
	if err != nil {
		return nil, err
	}
	// Instrument the core services. Safe before any traffic: the services
	// only touch the registry while handling messages and calls, which start
	// flowing after NewEnvironment returns.
	coreSvcs.Brokerage.Telemetry = tel
	coreSvcs.Matchmaking.Telemetry = tel
	coreSvcs.Monitoring.Telemetry = tel
	coreSvcs.Monitoring.Logger = telemetry.ComponentLogger(logger, "monitoring")
	plannerSvc, err = planner.NewService(planner.ServiceConfig{
		Catalog:   opts.Catalog,
		Params:    params,
		Telemetry: tel,
	})
	if err != nil {
		return nil, err
	}
	plansvc := planning.New(opts.Catalog, params, plannerSvc)
	plansvc.Telemetry = tel
	if _, err := platform.Register(services.PlanningName, plansvc); err != nil {
		return nil, err
	}
	coord, err := coordination.New(coordination.Config{
		Platform:    platform,
		Catalog:     opts.Catalog,
		Matchmaking: coreSvcs.Matchmaking,
		Brokerage:   coreSvcs.Brokerage,
		Containers:  coreSvcs.Containers,
		PostProcess: opts.PostProcess,
		Checkpoint:  opts.Checkpoint,
		Telemetry:   tel,
		Logger:      telemetry.ComponentLogger(logger, "coordination"),
	})
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{
		Coordinator:    coord,
		Storage:        coreSvcs.Storage,
		Telemetry:      tel,
		Logger:         telemetry.ComponentLogger(logger, "engine"),
		Workers:        opts.Workers,
		QueueCapacity:  opts.QueueCapacity,
		RetainFinished: opts.RetainFinished,
		Tenants:        opts.Tenants,
		TenantDefaults: opts.TenantDefaults,
	})
	if err != nil {
		return nil, err
	}
	eng.Start()
	return &Environment{
		Platform:    platform,
		Grid:        g,
		Services:    coreSvcs,
		Planning:    plansvc,
		Planner:     plannerSvc,
		Coordinator: coord,
		Engine:      eng,
		Store:       backend,
		Archive:     kb.NewArchive(),
		Catalog:     opts.Catalog,
		Telemetry:   tel,
		Logger:      logger,
	}, nil
}

// Close stops the enactment engine (cancelling in-flight work), the
// planning service (cancelling in-flight plans), shuts the agent platform
// down, and closes the storage backend (flushing any pending group-commit
// batch).
func (e *Environment) Close() {
	e.Engine.Close()
	if e.Planner != nil {
		e.Planner.Close()
	}
	e.Platform.Shutdown()
	if e.Store != nil {
		_ = e.Store.Close()
	}
}

// SubmitContext enacts a task through the coordination service under the
// given fault-tolerance policy (nil means defaults), aborting when ctx is
// cancelled.
func (e *Environment) SubmitContext(ctx context.Context, task *workflow.Task, pol *coordination.Policy) (*coordination.Report, error) {
	return e.Coordinator.RunTaskContext(ctx, task, pol)
}

// Plan asks the planning service for a process description solving the
// problem, archives it, and returns it together with the planner's own
// evaluation of the plan.
func (e *Environment) Plan(name string, problem *workflow.Problem) (*workflow.ProcessDescription, planning.PlanReply, error) {
	if err := problem.Validate(); err != nil {
		return nil, planning.PlanReply{}, err
	}
	reply, err := e.Planning.Plan(nil, planning.PlanRequest{
		Initial: problem.Initial.Items(),
		Goal:    problem.Goal.Conditions,
	})
	if err != nil {
		return nil, planning.PlanReply{}, err
	}
	// The reply's process is shared with the plan cache: archive and return
	// a copy under the caller's name.
	p := reply.Process.Clone()
	p.Name = name
	if _, err := e.Archive.Put(name, "planning-service", reply.Tree, p); err != nil {
		return nil, planning.PlanReply{}, err
	}
	return p, reply, nil
}
