// Command gridload prints the seeded multi-tenant load reports of package
// load, both computed on a virtual clock: the same seed and flags always
// print a byte-identical JSON report, which makes them suitable for
// regression diffing in CI.
//
// Usage:
//
//	gridload [-pattern closed|open] [-seed 1]
//	         [-tenants alpha:3,beta:1,gamma:1] [-n N]
//	         [-rate 100] [-outstanding 8] [-workers 4] [-capacity 0]
//	         [-service-mean 0.05] [-indent]
//	         [-scenario fairness|costmix] [-nodes 16]
//
// The default fairness scenario replays an open- or closed-loop workload
// over a weighted tenant mix against the engine's actual fair-queue
// scheduling code. Report fields: per-tenant submitted/accepted/rejected/
// completed counts, goodput share vs. weight share with relative deviation,
// latency mean/p50/p95/p99/max, plus Jain's fairness index over
// weight-normalized goodput. See the README "Multi-tenancy" section.
//
// -scenario costmix runs the cost-aware scheduling mix instead: a
// cheap/patient "batch" tenant and an expensive/urgent "rush" tenant
// dispatch -n tasks each over a -nodes fleet (half cheap-slow, half
// fast-expensive) through the production candidate scorer, and the report
// carries one SLO verdict per tenant (batch inside budget, rush meeting
// deadlines). Without -n the fairness workload runs 1000 tasks and costmix
// 200 per tenant.
//
// Wall-clock load on the real enactment path is the benchmark client's job
// (benchmark/: enact_sat into Engine.Submit, serve_open over HTTP).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/load"
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
	fs.IntVar(&spec.Workers, "workers", 4, "simulated workers")
	fs.IntVar(&spec.QueueCapacity, "capacity", 0, "admission queue capacity (0 = sized automatically)")
	fs.Float64Var(&spec.ServiceMeanSec, "service-mean", 0.05, "simulated mean service seconds")
	var (
		tenants  = fs.String("tenants", "alpha:3,beta:1,gamma:1", "tenant mix as id:weight[:share],...")
		indent   = fs.Bool("indent", false, "pretty-print the JSON report")
		scenario = fs.String("scenario", "fairness", "fairness (tenant goodput mix) or costmix (cost-aware scheduling SLOs)")
		nodes    = fs.Int("nodes", 16, "costmix fleet size (half cheap-slow, half fast-expensive)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var report any
	switch *scenario {
	case "costmix":
		r, err := load.RunCostMix(load.CostMixSpec{Seed: spec.Seed, Tasks: spec.Arrivals, Nodes: *nodes})
		if err != nil {
			return err
		}
		report = r
	case "fairness":
		var err error
		if spec.Tenants, err = load.ParseTenants(*tenants); err != nil {
			return err
		}
		r, err := load.RunSim(spec)
		if err != nil {
			return err
		}
		report = r
	default:
		return fmt.Errorf("unknown scenario %q (want fairness or costmix)", *scenario)
	}
	enc := json.NewEncoder(out)
	if *indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(report)
}
