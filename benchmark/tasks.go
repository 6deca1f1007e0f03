package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/grid"
	"repro/internal/httpapi"
	"repro/internal/pdl"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// The three workloads whose op is a task enacted by the engine: enact_sat,
// serve_open and replan_mix. They share the Figure-10 inputs, the
// correctness check and the per-layer accounting; they differ in the path
// into the engine, the store behind it, and the arrival pattern.

const (
	clients = 2 // client goroutines; sized for a 2-core box
	// Raised from the product defaults so that the harness itself never
	// trips admission or eviction; every pool size stays at its default.
	queueCapacity  = 4096
	retainFinished = 4096
	// fig10Executions is 2 + 3 iterations x 5 end-user activities.
	fig10Executions = 17
)

// taskEnv is an environment plus what the harness wrapped around it.
type taskEnv struct {
	env *core.Environment
	dir string // file store directory, removed on close
	tr  *tracer
}

func (te *taskEnv) close() {
	te.env.Close()
	if te.dir != "" {
		os.RemoveAll(te.dir)
	}
}

// newTaskEnv builds an environment on dsn. Traced, it opens the store itself
// and hands it in wrapped, with the registry the environment would have given
// it, so the traced store does the same work as the untraced one.
func newTaskEnv(cfg Config, opts core.Options, dsn string, tr *tracer) (*taskEnv, error) {
	te := &taskEnv{tr: tr}
	if opts.Grid == nil {
		opts.GridConfig = reliableGrid()
	}
	if dir, ok := strings.CutPrefix(dsn, "file:"); ok {
		te.dir = dir
	}
	opts.Planner = cfg.PlanParams
	opts.QueueCapacity = queueCapacity
	if opts.RetainFinished == 0 {
		opts.RetainFinished = retainFinished
	}
	if tr == nil {
		opts.StoreDSN = dsn
	} else {
		opts.Telemetry = telemetry.New()
		st, err := store.Open(dsn, store.Options{Telemetry: opts.Telemetry})
		if err != nil {
			return nil, err
		}
		opts.Store = &tracedStore{Store: st, t: tr}
	}
	env, err := core.NewEnvironment(opts)
	if err != nil {
		return nil, err
	}
	te.env = env
	return te, nil
}

// reliableGrid is the default synthetic grid with its stochastic execution
// failures switched off. At the default 2% rate a long run sooner or later
// exhausts an activity's retries, quarantines the node for good, and after a
// few thousand tasks has quarantined every provider: the workload would
// measure the decay of the grid, and no run would be free of failed tasks.
func reliableGrid() *grid.SyntheticConfig {
	cfg := grid.DefaultSyntheticConfig()
	cfg.FailureRate = 0
	return &cfg
}

// storeDir names a fresh store directory under the output directory.
func storeDir(cfg Config, name string, rep int) string {
	return filepath.Join(cfg.OutDir, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), rep))
}

// fig10Task builds one Figure-10 task the way a caller holding PDL text
// would: the text is parsed per task.
func fig10Task(o *op) (*workflow.Task, error) {
	p, err := pdl.ParseProcess(o.id, virolab.PDLSource)
	if err != nil {
		return nil, err
	}
	return &workflow.Task{ID: o.id, Name: "3DSD", Owner: "UCF", Process: p, Case: virolab.Case()}, nil
}

// fig10Submission is the HTTP form of the same task, less id and tenant.
func fig10Submission() httpapi.TaskSubmission {
	sub := httpapi.TaskSubmission{Name: "3DSD", PDL: virolab.PDLSource, Goal: []string{virolab.GoalCondition}}
	for _, d := range virolab.InitialData() {
		item := httpapi.DataItemJSON{Name: d.Name, Classification: d.Classification()}
		for k, v := range d.Props {
			if k == workflow.PropClassification {
				continue
			}
			if num, ok := v.Num(); ok {
				if item.Props == nil {
					item.Props = map[string]float64{}
				}
				item.Props[k] = num
			} else {
				if item.TextProps == nil {
					item.TextProps = map[string]string{}
				}
				item.TextProps[k] = v.Str()
			}
		}
		sub.InitialData = append(sub.InitialData, item)
	}
	return sub
}

// checkGoal is the part of the correctness check every task shares: it ended
// completed with its goal reached.
func checkGoal(o *op) string {
	r := o.st.Report
	switch {
	case o.st.Status != engine.StatusCompleted:
		return fmt.Sprintf("task %s ended %s: %s", o.id, o.st.Status, o.st.Error)
	case r == nil || !r.Completed || r.GoalFitness < 1:
		return fmt.Sprintf("task %s: goal not reached", o.id)
	}
	return ""
}

// checkCompleted adds that it did so on its first attempt; only a task the
// crash of recover_file caught mid-run may be on its second.
func checkCompleted(o *op) string {
	if msg := checkGoal(o); msg != "" {
		return msg
	}
	if o.st.Attempt != 1 {
		return fmt.Sprintf("task %s: %d attempts, want 1", o.id, o.st.Attempt)
	}
	return ""
}

func checkFig10(o *op) string {
	if msg := checkCompleted(o); msg != "" {
		return msg
	}
	if got := o.st.Report.Executed; got != fig10Executions {
		r := o.st.Report
		return fmt.Sprintf("task %s: %d activity executions, want %d (fired %d, failures %d, retries %d, re-plans %d)",
			o.id, got, fig10Executions, r.Fired, r.Failures, r.Retries, r.Replans)
	}
	return ""
}

// summarizeOps folds the window's ops into the outcome and the per-layer
// metrics that come from the generator's clocks and the terminal statuses.
func summarizeOps(out *outcome, ops []*op, weights []int, openLoop bool) {
	var build, polls, lag, submit, wait, run []float64
	var activities, retries, replans float64
	perTenant := make([]float64, len(weights))
	seen := map[string]bool{}
	for _, o := range ops {
		out.attempted++
		if o.err == "" && seen[o.id] {
			o.err = fmt.Sprintf("task %s turned terminal twice", o.id)
		}
		seen[o.id] = true
		if o.err != "" {
			out.errs = append(out.errs, o.err)
			continue
		}
		out.completed++
		out.latency = append(out.latency, ms(o.latency()))
		build = append(build, us(o.build))
		polls = append(polls, float64(o.polls))
		lag = append(lag, ms(o.sent.Sub(o.due)))
		submit = append(submit, us(o.submit))
		wait = append(wait, o.st.QueueWait*1000)
		run = append(run, ms(o.st.Finished.Sub(o.started())))
		activities += float64(o.executed)
		retries += float64(o.retries)
		replans += float64(o.replans)
		perTenant[o.tenant]++
	}
	n := float64(max(out.completed, 1))
	m := out.layer
	m["client.build_us"] = mean(build)
	m["client.polls_per_op"] = mean(polls)
	if openLoop {
		m["client.send_lag_p95_ms"] = quantile(lag, 0.95)
		m["httpapi.post_rtt_us_p50"] = median(submit)
	} else {
		m["engine.submit_us_p50"] = median(submit)
	}
	m["client.latency_p95_ms"] = quantile(out.latency, 0.95)
	m["client.latency_p99_ms"] = quantile(out.latency, 0.99)
	m["client.latency_max_ms"] = quantile(out.latency, 1)
	m["client.failed_share"] = float64(out.attempted-out.completed) / float64(max(out.attempted, 1))
	m["engine.queue_wait_ms_p50"] = median(wait)
	m["engine.run_ms_p50"] = median(run)
	m["coordination.activities_per_task"] = activities / n
	m["coordination.retries_per_task"] = retries / n
	m["coordination.replans_per_task"] = replans / n

	// Fairness over weight-normalised tenant goodput.
	var total, wsum float64
	for i, w := range weights {
		total += perTenant[i]
		wsum += float64(w)
	}
	norm := make([]float64, len(weights))
	dev := 0.0
	for i, w := range weights {
		norm[i] = perTenant[i] / float64(w)
		if total > 0 {
			dev = math.Max(dev, math.Abs(perTenant[i]/total-float64(w)/wsum))
		}
	}
	m["fairq.jain"] = jain(norm)
	m["fairq.share_dev_max"] = dev
}

// storeStatsLayer fills the store.* metrics that come from Store.Stats()
// deltas over the window: flush counts, batch size and disk growth.
func storeStatsLayer(m metricSet, w *window, completed int) {
	n := float64(max(completed, 1))
	appends := float64(w.s1.Appends - w.s0.Appends)
	flushes := float64(w.s1.Flushes - w.s0.Flushes)
	m["store.flushes_per_task"] = flushes / n
	if flushes > 0 {
		m["store.batch_mean"] = appends / flushes
	}
	m["store.disk_bytes_per_task"] = float64(w.s1.Bytes-w.s0.Bytes) / n
}

// storeCallLayer fills the store.* metrics that come from the decorator:
// call times, and writes, bytes and blocked time per completed op over the
// events inside [from, to).
func storeCallLayer(m metricSet, tr *tracer, from, to time.Time, completed int) {
	m["store.put_us_p50"] = median(tr.durations("store.put"))
	m["store.put_async_us_p50"] = median(tr.durations("store.put_async"))
	m["store.replace_us_p50"] = median(tr.durations("store.replace"))
	m["store.get_us_p50"] = median(tr.durations("store.get"))
	var writes, bytes, blocked float64
	for _, e := range tr.events {
		if strings.HasPrefix(e.name, "store.") && !e.start.Before(from) && e.start.Before(to) {
			blocked += ms(e.end.Sub(e.start))
			if e.name != "store.get" {
				writes++
				bytes += float64(e.n)
			}
		}
	}
	n := float64(max(completed, 1))
	m["store.writes_per_task"] = writes / n
	m["store.bytes_per_task"] = bytes / n
	m["store.blocked_ms_per_task"] = blocked / n
}

// finishTaskRun is the common tail of the task workloads: window
// accounting, per-layer metrics, budget and spans.
func finishTaskRun(out *outcome, te *taskEnv, w *window, all []*op, weights []int, openLoop bool) {
	<-w.done
	out.proc = w.whole()
	var ops []*op
	for _, o := range all {
		if w.contains(o) {
			ops = append(ops, o)
		}
	}
	summarizeOps(out, ops, weights, openLoop)
	out.samples = w.samples(ops)
	storeStatsLayer(out.layer, w, out.completed)
	out.layer["engine.rejected"] = float64(te.env.Engine.Stats().Rejected)
	runtimeLayer(out.layer, out.proc)
	if te.tr != nil {
		storeCallLayer(out.layer, te.tr, w.begin(), w.end(), out.completed)
		posts, gets := te.tr.durations("httpapi.post"), te.tr.durations("httpapi.get")
		out.layer["httpapi.post_handler_us_p50"] = median(posts)
		out.layer["httpapi.get_handler_us_p50"] = median(gets)
		non2xx := 0
		for _, e := range te.tr.events {
			if strings.HasPrefix(e.name, "httpapi.") && e.n/100 != 2 {
				non2xx++
			}
		}
		out.layer["httpapi.requests"] = float64(len(posts) + len(gets))
		out.layer["httpapi.non2xx"] = float64(non2xx)
		out.spans = te.tr.spans(ops)
		out.ops, out.tr = ops, te.tr
	}
}

// --- enact_sat --------------------------------------------------------------

// runEnactSat: closed loop straight into Engine.Submit on the mem: store;
// three tenants weighted 3:1:1, each client holding 8 outstanding per tenant
// (48 in flight), so the engine is saturated and the store, HTTP and planner
// do nothing.
func runEnactSat(cfg Config, tr *tracer) (*outcome, error) {
	tenants := []string{"alpha", "beta", "gamma"}
	weights := []int{3, 1, 1}
	const outstanding = 8 // per client and tenant
	opts := core.Options{
		Catalog:     virolab.Catalog(),
		PostProcess: virolab.ResolutionHook(nil),
		Tenants:     map[string]engine.TenantConfig{},
	}
	for i, t := range tenants {
		opts.Tenants[t] = engine.TenantConfig{Weight: weights[i]}
	}
	te, setup, err := timeSetups(cfg,
		func(int) (*taskEnv, error) { return newTaskEnv(cfg, opts, "mem:", tr) },
		(*taskEnv).close)
	if err != nil {
		return nil, err
	}
	defer te.close()
	out := &outcome{setup: setup, layer: metricSet{}, info: map[string]any{}}

	begin := time.Now().Add(seconds(cfg.Warmup))
	end := begin.Add(seconds(cfg.Seconds))
	w := startWindow(begin, end, te.env.Store)
	var seq atomic.Int64
	next := func(tenant int) *op {
		if !time.Now().Before(end) {
			return nil
		}
		return &op{id: fmt.Sprintf("e%d-%d", tenant, seq.Add(1)), tenant: tenant}
	}
	send := &engineSender{eng: te.env.Engine, tenants: tenants, newTask: fig10Task}
	all := closedLoop(send, clients, len(tenants), outstanding, next, checkFig10)
	finishTaskRun(out, te, w, all, weights, false)
	return out, nil
}

// --- serve_open -------------------------------------------------------------

// runServeOpen: open loop, seeded Poisson arrivals at a fixed rate over real
// loopback HTTP into a file: store with default group commit — the whole
// path from HTTP byte to fsync, at about a quarter of its saturation rate,
// so latency is service time and fsync wait rather than queueing.
func runServeOpen(cfg Config, tr *tracer) (*outcome, error) {
	tenants := []string{"alpha", "beta", "gamma"}
	weights := []int{1, 1, 1}
	opts := core.Options{Catalog: virolab.Catalog(), PostProcess: virolab.ResolutionHook(nil)}
	type served struct {
		te *taskEnv
		ts *httptest.Server
	}
	sv, setup, err := timeSetups(cfg,
		func(rep int) (served, error) {
			te, err := newTaskEnv(cfg, opts, "file:"+storeDir(cfg, wServeOpen, rep), tr)
			if err != nil {
				return served{}, err
			}
			h := httpapi.New(te.env).Handler()
			if tr != nil {
				h = traceHandler(tr, h)
			}
			return served{te, httptest.NewServer(h)}, nil
		},
		func(s served) { s.ts.Close(); s.te.close() })
	if err != nil {
		return nil, err
	}
	defer sv.te.close()
	defer sv.ts.Close()
	out := &outcome{setup: setup, layer: metricSet{}, info: map[string]any{}}

	// Each client draws its own Poisson stream at half the rate; their
	// superposition is Poisson at the full rate.
	start := time.Now().Add(20 * time.Millisecond)
	begin := start.Add(seconds(cfg.Warmup))
	end := begin.Add(seconds(cfg.Seconds))
	schedule := make([][]*op, clients)
	n := 0
	for c := range schedule {
		rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(c)))
		at := start
		for {
			at = at.Add(seconds(rng.ExpFloat64() / (cfg.ServeRate / clients)))
			if !at.Before(end) {
				break
			}
			n++
			schedule[c] = append(schedule[c], &op{id: fmt.Sprintf("s%d-%d", c, n), tenant: n % len(tenants), due: at})
		}
	}
	w := startWindow(begin, end, sv.te.env.Store)
	template := fig10Submission()
	send := make([]sender, clients)
	for c := range send {
		send[c] = &httpSender{base: sv.ts.URL, client: newHTTPClient(), eng: sv.te.env.Engine, tenants: tenants,
			newBody: func(o *op) ([]byte, error) {
				sub := template
				sub.ID, sub.Tenant = o.id, tenants[o.tenant]
				return json.Marshal(sub)
			}}
	}
	all := openLoop(send, schedule, checkFig10)
	finishTaskRun(out, sv.te, w, all, weights, true)
	out.info["offered_per_s"] = cfg.ServeRate
	return out, nil
}

// --- replan_mix -------------------------------------------------------------

// fig3Env builds the Figure-3 grid of BenchmarkFig3Replanning: the sole P3DR
// provider is down and the backup node offers the drop-in P3DRALT.
func fig3Env(cfg Config, tr *tracer) (*taskEnv, error) {
	g := grid.New(cfg.Seed)
	_ = g.AddNode(&grid.Node{ID: "main", Hardware: grid.Hardware{Type: "SMP", Speed: 2}})
	_ = g.AddNode(&grid.Node{ID: "backup", Hardware: grid.Hardware{Type: "PC-cluster", Speed: 1}})
	_ = g.AddContainer(&grid.Container{ID: "ac-main", NodeID: "main", Services: []string{"POD", "P3DR", "POR", "PSF"}})
	_ = g.AddContainer(&grid.Container{ID: "ac-backup", NodeID: "backup", Services: []string{"POD", "POR", "PSF", "P3DRALT"}})
	catalog := virolab.Catalog()
	p3dr := catalog.Get("P3DR")
	catalog.Add(&workflow.Service{Name: "P3DRALT", Inputs: p3dr.Inputs, Outputs: p3dr.Outputs, BaseTime: p3dr.BaseTime})
	te, err := newTaskEnv(cfg, core.Options{Grid: g, Catalog: catalog, PostProcess: virolab.ResolutionHook(nil)}, "mem:", tr)
	if err != nil {
		return nil, err
	}
	if err := g.SetNodeUp("main", false); err != nil {
		te.close()
		return nil, err
	}
	return te, nil
}

func checkReplan(o *op) string {
	if msg := checkCompleted(o); msg != "" {
		return msg
	}
	r := o.st.Report
	if r.Replans != 1 {
		return fmt.Sprintf("task %s: %d re-plans, want 1", o.id, r.Replans)
	}
	for _, ev := range r.Trace {
		if ev.Kind == "plan-received" && strings.Contains(ev.Detail, "P3DRALT") {
			return ""
		}
	}
	return fmt.Sprintf("task %s: final plan does not use P3DRALT", o.id)
}

// runReplanMix: closed loop, 2 clients with one task outstanding each. The
// work comes in blocks of ReplanVariants case variants x 4 passes; a variant
// differs from the next only in a property no condition reads (Batch on D1),
// which is enough to change its plan-cache key. Pass 1 of a block is
// therefore all incremental re-plans and passes 2-4 are all plan-cache hits:
// one miss to three hits whatever the machine's speed. Whole blocks run until
// the window is over. The clients drain between the miss pass and the hit
// passes, or a hit could overtake the miss it depends on.
//
// The ISSUE had 4 outstanding per client. Two re-plans at a time already keep
// both cores busy, so the goodput is the same; but with 8 tasks on 2 workers
// the median latency, a hit's, was three quarters queueing, and it moved by
// 2.5 times as much as the goodput whenever the host changed speed. With one
// outstanding it is the time a task takes.
func runReplanMix(cfg Config, tr *tracer) (*outcome, error) {
	const outstanding = 1 // per client
	te, setup, err := timeSetups(cfg,
		func(int) (*taskEnv, error) { return fig3Env(cfg, tr) },
		(*taskEnv).close)
	if err != nil {
		return nil, err
	}
	defer te.close()
	out := &outcome{setup: setup, layer: metricSet{}, info: map[string]any{}}

	send := &engineSender{eng: te.env.Engine, tenants: []string{"solo"}, newTask: func(o *op) (*workflow.Task, error) {
		task, err := fig10Task(o)
		if err == nil {
			// D1 is the first item of the case; no condition reads Batch.
			task.Case.InitialData[0].With("Batch", expr.Number(float64(o.variant)))
		}
		return task, err
	}}
	var all []*op
	variant := 0
	// phase sends passes x n tasks, one per pass and variant of the block,
	// and waits for all of them.
	phase := func(block, class, firstPass, passes, n int) {
		var i atomic.Int64
		next := func(int) *op {
			k := int(i.Add(1)) - 1
			if k >= passes*n {
				return nil
			}
			return &op{id: fmt.Sprintf("r%d-%d-%d", block, firstPass+k/n, k%n), variant: variant + k%n, class: class}
		}
		all = append(all, closedLoop(send, clients, 1, outstanding, next, checkReplan)...)
	}
	block := func(b, n int) {
		phase(b, 0, 0, 1, n) // the miss pass
		phase(b, 1, 1, 3, n) // the three hit passes, back to back
		variant += n
	}
	// Warm-up: one block outside the window fills the lazy paths (first
	// plan, agent registrations) and grows the heap to its working size.
	block(0, cfg.ReplanVariants)
	before := te.env.Planner.Stats()

	// One sample per block: every block is the same work.
	end := time.Now().Add(seconds(cfg.Seconds))
	w := &window{done: make(chan struct{})}
	w.mark(te.env.Store)
	blocks := 0
	for b := 1; b == 1 || time.Now().Before(end); b++ {
		block(b, cfg.ReplanVariants)
		w.mark(te.env.Store)
		blocks++
	}
	close(w.done)
	finishTaskRun(out, te, w, all, []int{1}, false)

	// Exact cache counts: every first pass misses, every later pass hits.
	after := te.env.Planner.Stats()
	misses, hits := after.CacheMisses-before.CacheMisses, after.CacheHits-before.CacheHits
	if want := int64(blocks * cfg.ReplanVariants); misses != want || hits != 3*want {
		out.fail("plan cache: %d misses and %d hits, want %d and %d", misses, hits, want, 3*want)
	}
	out.layer["planner.cache_misses"] = float64(misses)
	out.layer["planner.cache_hits"] = float64(hits)
	var miss, hit []float64
	for _, o := range all {
		if w.contains(o) && o.err == "" {
			if o.class == 0 {
				miss = append(miss, ms(o.latency()))
			} else {
				hit = append(hit, ms(o.latency()))
			}
		}
	}
	out.info["blocks"] = blocks
	out.info["miss_latency_p50_ms"] = median(miss)
	out.info["hit_latency_p50_ms"] = median(hit)
	plannerLayer(out.layer, te.env.Planner.List())
	return out, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
