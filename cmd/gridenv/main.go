// Command gridenv starts a complete grid environment — synthetic grid, core
// services, planning, coordination — and serves the User Interface HTTP API
// (package httpapi) on the given address.
//
// Usage:
//
//	gridenv [-addr :8080] [-clusters 6] [-smps 3] [-supers 1] [-seed 1]
//	        [-store mem:|file:DIR] [-workers N] [-enact-delay D]
//	        [-tenants alpha:3,beta:1] [-tenant-max-queued N]
//	        [-tenant-max-inflight N] [-tenant-rate R] [-tenant-burst N]
//	        [-log-level info] [-log-format text] [-pprof]
//
// -store selects the storage backend by DSN: "mem:" (volatile, the default)
// or "file:DIR" (append-only segmented log of CRC-checked frames, with
// rotation and compaction). On the durable backend, checkpoints, archived
// plans, and the enactment engine's write-ahead task journal survive
// restarts with no explicit save step: journal appends are group-committed
// (concurrent writers share an fsync; there is nothing to tune), and at
// startup the engine replays the journal — tasks that were accepted but
// never started are re-enqueued, tasks interrupted mid-enactment resume from
// their latest checkpoint, and finished tasks stay queryable. A value
// without a scheme is rejected. -workers sizes the engine's coordinator
// worker pool (default: GOMAXPROCS); -enact-delay sleeps that long per
// enacted activity, emulating remote service latency so that tasks stay in
// flight for a crash-recovery check.
//
// -tenants assigns fair-share weights (id:weight,...) to named tenants; the
// -tenant-* flags set the default admission quotas — max queued tasks, max
// concurrent enactments, and token-bucket submit rate/burst — applied to
// every tenant without an explicit entry. Quota rejections answer HTTP 429
// tenant_queue_full / tenant_rate_limited with Retry-After and X-RateLimit-*
// headers; per-tenant accounting is served at /api/v1/tenants.
//
// Submissions may carry cost/deadline constraints ("budget", plus "deadline"
// with "hardDeadline":true): the scheduler then picks the cheapest candidate
// node that still meets the deadline, per-case spend is surfaced in the task
// view (spent/budget, deadlineSlackSec) and per-tenant spend as spentCost in
// /api/v1/tenants, and a blown constraint terminates the task with reason
// budget_exceeded or deadline_missed. See README "Cost-aware scheduling".
//
// Try it:
//
//	curl localhost:8080/api/v1/nodes
//	curl localhost:8080/api/v1/services
//	curl localhost:8080/api/v1/ontology/3dsd
//	curl -X POST localhost:8080/api/v1/tasks -d '{"id":"T1","goal":["G.Classification = \"Resolution File\""],"initialData":[...]}'
//	curl -X POST localhost:8080/api/v1/tasks -d '{"id":"T2","budget":50,"deadline":30,"hardDeadline":true,"goal":[...],"initialData":[...]}'
//	curl localhost:8080/api/v1/tasks/T1/trace
//	curl localhost:8080/api/v1/metrics
//	curl localhost:8080/api/v1/metrics?format=prometheus
//	curl -N localhost:8080/api/v1/events
//	curl localhost:8080/api/v1/stats
//	curl localhost:8080/healthz localhost:8080/readyz
//
// Structured logs go to stderr; -log-level picks the threshold (debug, info,
// warn, error) and -log-format the encoding (text or json). -pprof mounts
// the net/http/pprof profiling handlers under /debug/pprof/.
//
// The unversioned /api/... aliases were removed: they answer 410 gone with a
// Link header naming the /api/v1 successor. See OBSERVABILITY.md for the
// metric names, the trace span schema, the log schema, and the event stream.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/httpapi"
	"repro/internal/planner"
	"repro/internal/telemetry"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err == nil {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err = run(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridenv:", err)
		os.Exit(1)
	}
}

// config is the parsed command line: the environment's options, filled
// directly by the flags, plus what only this command needs.
type config struct {
	addr  string
	opts  core.Options
	pprof bool
}

// parseFlags turns the command line into a config, rejecting flag values
// and combinations that cannot work before anything is built. Like
// flag.Parse it exits on a malformed flag or -h.
func parseFlags(args []string) (config, error) {
	var (
		cfg                 config
		tenants             string
		enactDelay          time.Duration
		logLevel, logFormat string
	)
	gridCfg := grid.DefaultSyntheticConfig()
	cfg.opts = core.Options{
		GridConfig: &gridCfg,
		Catalog:    virolab.Catalog(),
		Checkpoint: true,
	}
	fs := flag.NewFlagSet("gridenv", flag.ExitOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&gridCfg.Clusters, "clusters", gridCfg.Clusters, "PC clusters in the synthetic grid")
	fs.IntVar(&gridCfg.SMPs, "smps", gridCfg.SMPs, "SMP nodes")
	fs.IntVar(&gridCfg.Supercomputers, "supers", gridCfg.Supercomputers, "supercomputers")
	fs.Int64Var(&gridCfg.Seed, "seed", gridCfg.Seed, "grid and planner seed")
	fs.StringVar(&cfg.opts.StoreDSN, "store", "", "storage backend DSN: mem: or file:DIR (empty = mem:)")
	fs.IntVar(&cfg.opts.Workers, "workers", 0, "enactment worker pool size (0 = GOMAXPROCS)")
	fs.DurationVar(&enactDelay, "enact-delay", 0, "emulated per-activity service latency, to hold tasks in flight for a crash-recovery check (0 = none)")
	fs.StringVar(&tenants, "tenants", "", "per-tenant fair-share weights as id:weight,... (empty = all weight 1)")
	fs.IntVar(&cfg.opts.TenantDefaults.MaxQueued, "tenant-max-queued", 0, "default per-tenant queued-task quota (0 = unlimited)")
	fs.IntVar(&cfg.opts.TenantDefaults.MaxInFlight, "tenant-max-inflight", 0, "default per-tenant concurrent-enactment cap (0 = unlimited)")
	fs.Float64Var(&cfg.opts.TenantDefaults.RatePerSec, "tenant-rate", 0, "default per-tenant submit rate per second (0 = unlimited)")
	fs.IntVar(&cfg.opts.TenantDefaults.Burst, "tenant-burst", 0, "default per-tenant submit burst (0 = max(1, ceil(rate)))")
	fs.StringVar(&logLevel, "log-level", "info", "structured log threshold: debug, info, warn, error")
	fs.StringVar(&logFormat, "log-format", "text", "structured log encoding: text or json")
	fs.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	_ = fs.Parse(args) // ExitOnError: a malformed flag prints usage and exits 2

	cfg.opts.Planner = planner.DefaultParams()
	cfg.opts.Planner.Seed = gridCfg.Seed
	var err error
	if cfg.opts.Logger, err = telemetry.NewLogger(os.Stderr, logLevel, logFormat); err != nil {
		return config{}, err
	}
	if cfg.opts.Tenants, err = tenantConfigs(tenants, cfg.opts.TenantDefaults); err != nil {
		return config{}, err
	}

	// -enact-delay emulates per-activity service latency (network + remote
	// compute) so tasks stay in flight, as a crash-recovery check needs; it
	// composes with the resolution hook.
	cfg.opts.PostProcess = virolab.ResolutionHook(nil)
	if enactDelay > 0 {
		inner := cfg.opts.PostProcess
		cfg.opts.PostProcess = func(a *workflow.Activity, items []*workflow.DataItem, iter int) {
			time.Sleep(enactDelay)
			inner(a, items, iter)
		}
	}
	return cfg, nil
}

// tenantConfigs parses -tenants (id:weight,...) and merges the default
// quotas into every entry, so a weighted tenant still gets the shared quota
// settings.
func tenantConfigs(weights string, defaults engine.TenantConfig) (map[string]engine.TenantConfig, error) {
	if weights == "" {
		return nil, nil
	}
	out := make(map[string]engine.TenantConfig)
	for _, entry := range strings.Split(weights, ",") {
		id, weight, ok := strings.Cut(strings.TrimSpace(entry), ":")
		w, err := strconv.Atoi(weight)
		switch {
		case !ok || id == "" || err != nil:
			return nil, fmt.Errorf("-tenants entry %q: want id:weight", entry)
		case w <= 0:
			return nil, fmt.Errorf("-tenants entry %q: weight must be positive", entry)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("-tenants entry %q: tenant %q listed twice", entry, id)
		}
		cfg := defaults
		cfg.Weight = w
		out[id] = cfg
	}
	return out, nil
}

// run builds the environment, replays a durable journal, and serves the
// HTTP API until the listener fails or ctx is cancelled.
func run(ctx context.Context, cfg config) error {
	env, err := core.NewEnvironment(cfg.opts)
	if err != nil {
		return err
	}
	defer env.Close()
	// The ontology agent serves the knowledge base the catalog was read from.
	kb, err := virolab.Ontology()
	if err != nil {
		return err
	}
	env.Services.Ontology.Add("3dsd", kb)

	if env.Store.Kind() != "mem" {
		report, err := env.Engine.Recover()
		if err != nil {
			return fmt.Errorf("replaying task journal: %w", err)
		}
		if report.Total() > 0 || report.Terminal > 0 {
			fmt.Printf("journal replayed: %d requeued, %d resumed from checkpoint, %d restarted, %d already finished\n",
				len(report.Requeued), len(report.Resumed), len(report.Restarted), report.Terminal)
		}
	}
	if cfg.opts.StoreDSN != "" {
		fmt.Printf("storage backend: %s\n", env.Store.Kind())
	}

	ui := httpapi.New(env)
	ui.EnablePprof = cfg.pprof
	server := &http.Server{Addr: cfg.addr, Handler: ui.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	fmt.Printf("grid environment up: %d nodes, %d containers; serving on %s\n",
		len(env.Grid.Nodes()), len(env.Grid.Containers()), cfg.addr)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	_ = server.Close()
	return nil
}
