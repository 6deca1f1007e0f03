// Command gridload is the deterministic multi-tenant load generator for the
// enactment engine (package load). It runs a seeded open- or closed-loop
// workload over a weighted tenant mix and prints a JSON latency/fairness
// report.
//
// Usage:
//
//	gridload [-mode sim|live] [-pattern closed|open] [-seed 1]
//	         [-tenants alpha:3,beta:1,gamma:1] [-n N]
//	         [-rate 100] [-outstanding 8] [-workers 4] [-capacity 0]
//	         [-service-mean 0.05] [-endpoints URL,URL,...] [-indent]
//	         [-scenario fairness|costmix] [-nodes 16]
//
// -scenario costmix runs the cost-aware scheduling mix instead of the
// fairness workload: a cheap/patient "batch" tenant and an expensive/urgent
// "rush" tenant dispatch -n tasks each over a -nodes fleet (half cheap-slow,
// half fast-expensive) through the production candidate scorer, and the
// report carries one SLO verdict per tenant (batch inside budget, rush
// meeting deadlines). Always a seeded virtual clock — byte-identical at a
// fixed seed. Without -n the fairness workload runs 1000 tasks and costmix
// 200 per tenant.
//
// -endpoints (live mode) drives already-running gridenv processes over
// their HTTP API instead of building an in-process engine, round-robining
// submissions across the listed base URLs. The processes are independent:
// each task is polled on the process that accepted it.
//
// The default sim mode replays the workload against the engine's actual
// fair-queue scheduling code under a virtual clock: the same seed and flags
// always print a byte-identical report, which makes it suitable for
// regression diffing in CI. Live mode builds a full in-process grid
// environment (synthetic grid, virolab catalog) and drives the real
// enactment engine, measuring wall-clock latencies; tenant weights from
// -tenants are applied to the engine's fair queue.
//
// Report fields: per-tenant submitted/accepted/rejected/completed counts,
// goodput share vs. weight share with relative deviation, latency
// mean/p50/p95/p99/max, plus Jain's fairness index over weight-normalized
// goodput. See the README "Multi-tenancy" section.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/load"
	"repro/internal/pdl"
	"repro/internal/planner"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gridload:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("gridload", flag.ContinueOnError)
	var spec load.Spec
	fs.StringVar(&spec.Mode, "pattern", "closed", "arrival pattern: closed (saturating windows) or open (Poisson)")
	fs.Int64Var(&spec.Seed, "seed", 1, "seed for arrivals, mixes, and service times")
	fs.IntVar(&spec.Arrivals, "n", 0, "total tasks: completions (closed) or submissions (open); per tenant in costmix (0 = 1000, costmix 200)")
	fs.Float64Var(&spec.RatePerSec, "rate", 100, "open-loop aggregate arrival rate per second")
	fs.IntVar(&spec.Outstanding, "outstanding", 8, "closed-loop in-flight window per tenant")
	fs.IntVar(&spec.Workers, "workers", 4, "simulated workers (sim) / engine worker pool (live)")
	fs.IntVar(&spec.QueueCapacity, "capacity", 0, "admission queue capacity (0 = sized automatically)")
	fs.Float64Var(&spec.ServiceMeanSec, "service-mean", 0.05, "simulated mean service seconds (sim only)")
	var (
		mode        = fs.String("mode", "sim", "sim (virtual clock, reproducible) or live (real engine)")
		tenants     = fs.String("tenants", "alpha:3,beta:1,gamma:1", "tenant mix as id:weight[:share],...")
		endpoints   = fs.String("endpoints", "", "comma-separated base URLs of independent gridenv processes to drive over HTTP (live mode; empty = in-process engine)")
		traceparent = fs.Bool("traceparent", false, "send a fresh W3C traceparent header per submission so server traces join client-originated trace IDs (HTTP live mode)")
		indent      = fs.Bool("indent", false, "pretty-print the JSON report")
		scenario    = fs.String("scenario", "fairness", "fairness (tenant goodput mix) or costmix (cost-aware scheduling SLOs)")
		nodes       = fs.Int("nodes", 16, "costmix fleet size (half cheap-slow, half fast-expensive)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	emit := func(report any) error {
		enc := json.NewEncoder(out)
		if *indent {
			enc.SetIndent("", "  ")
		}
		return enc.Encode(report)
	}
	if *scenario == "costmix" {
		report, err := load.RunCostMix(load.CostMixSpec{Seed: spec.Seed, Tasks: spec.Arrivals, Nodes: *nodes})
		if err != nil {
			return err
		}
		return emit(report)
	}
	if *scenario != "fairness" {
		return fmt.Errorf("unknown scenario %q (want fairness or costmix)", *scenario)
	}
	var err error
	if spec.Tenants, err = load.ParseTenants(*tenants); err != nil {
		return err
	}
	spec = spec.Defaults()

	var report *load.Report
	switch *mode {
	case "sim":
		if *endpoints != "" {
			return fmt.Errorf("-endpoints needs -mode live")
		}
		report, err = load.RunSim(spec)
	case "live":
		if *endpoints != "" {
			report, err = runHTTP(spec, strings.Split(*endpoints, ","), *traceparent)
		} else {
			report, err = runLive(spec)
		}
	default:
		return fmt.Errorf("unknown mode %q (want sim or live)", *mode)
	}
	if err != nil {
		return err
	}
	return emit(report)
}

// runLive builds an in-process grid environment with the spec's tenant
// weights and drives its enactment engine.
func runLive(spec load.Spec) (*load.Report, error) {
	weights := make(map[string]engine.TenantConfig, len(spec.Tenants))
	for _, t := range spec.Tenants {
		weights[t.ID] = engine.TenantConfig{Weight: t.Weight}
	}
	params := planner.DefaultParams()
	params.Seed = spec.Seed
	env, err := core.NewEnvironment(core.Options{
		Catalog:        virolab.Catalog(),
		Planner:        params,
		Workers:        spec.Workers,
		Tenants:        weights,
		RetainFinished: 2 * spec.Arrivals,
		// A touch of per-activity latency keeps every tenant's window
		// backlogged, so the measured shares reflect the scheduler.
		PostProcess: func(*workflow.Activity, []*workflow.DataItem, int) {
			time.Sleep(2 * time.Millisecond)
		},
	})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	return load.RunLive(load.EngineTarget(env.Engine, liveTask), spec)
}

// runHTTP drives already-running gridenv processes over their HTTP API,
// round-robining submissions across the independent endpoints. Endpoints
// are base URLs without trailing slash; whitespace around commas is
// tolerated.
func runHTTP(spec load.Spec, endpoints []string, traceparent bool) (*load.Report, error) {
	cleaned := make([]string, 0, len(endpoints))
	for _, e := range endpoints {
		e = strings.TrimSuffix(strings.TrimSpace(e), "/")
		if e != "" {
			cleaned = append(cleaned, e)
		}
	}
	return load.RunLive(load.HTTPTarget(cleaned, liveBody, traceparent), spec)
}

// liveBody builds the POST /api/v1/tasks JSON for the n-th task of a
// tenant — the same workload liveTask feeds the in-process engine.
func liveBody(tenant string, n int) (string, []byte, error) {
	id := fmt.Sprintf("%s-%d", tenant, n)
	type dataItem struct {
		Name           string             `json:"name"`
		Classification string             `json:"classification"`
		Props          map[string]float64 `json:"props,omitempty"`
		TextProps      map[string]string  `json:"textProps,omitempty"`
	}
	var items []dataItem
	for _, d := range virolab.InitialData() {
		it := dataItem{Name: d.Name}
		for k, v := range d.Props {
			switch {
			case k == workflow.PropClassification:
				it.Classification = v.Str()
			default:
				if num, ok := v.Num(); ok {
					if it.Props == nil {
						it.Props = map[string]float64{}
					}
					it.Props[k] = num
				} else {
					if it.TextProps == nil {
						it.TextProps = map[string]string{}
					}
					it.TextProps[k] = v.Str()
				}
			}
		}
		items = append(items, it)
	}
	body, err := json.Marshal(map[string]any{
		"id":          id,
		"name":        "gridload " + id,
		"pdl":         livePDL,
		"initialData": items,
		"goal":        []string{`G.Classification = "Density Map"`},
		"tenant":      tenant,
	})
	return id, body, err
}

const livePDL = `BEGIN, POD(D1, D7 -> D8), END`

func liveTask(tenant string, n int) (*workflow.Task, error) {
	id := fmt.Sprintf("%s-%d", tenant, n)
	p, err := pdl.ParseProcess(id, livePDL)
	if err != nil {
		return nil, err
	}
	c := workflow.NewCase(id, "gridload "+id)
	for _, d := range virolab.InitialData() {
		c.AddData(d)
	}
	c.Goal = workflow.NewGoal(`G.Classification = "Density Map"`)
	return &workflow.Task{ID: id, Name: c.Name, Case: c, Process: p}, nil
}
