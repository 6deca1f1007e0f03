package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// recover_file is the read side of the store and journal whose write side
// serve_open measures: restart on a crash image and drain what the crash
// interrupted.

// buildCrashImage runs a first life on a file: store until RecoverFinished
// tasks are finished and RecoverPending more are accepted but cannot finish
// (the workers are parked inside a PostProcess hook), then copies what is
// durable at that instant — what a kill -9 would leave — to a new directory.
func buildCrashImage(cfg Config, rep int) (string, error) {
	live := storeDir(cfg, "recover-live", rep)
	image := storeDir(cfg, "recover-image", rep)
	defer os.RemoveAll(live)

	fs, err := store.Open("file:"+live, store.Options{})
	if err != nil {
		return "", err
	}
	// The fence stands in for the kill: once the image is taken, the first
	// life's shutdown must not spend seconds journalling cancellations.
	fenced := store.NewFenced(fs)
	fenced.OwnsBackend = true
	var gated atomic.Bool
	release := make(chan struct{})
	resolve := virolab.ResolutionHook(nil)
	env, err := core.NewEnvironment(core.Options{
		Catalog:        virolab.Catalog(),
		GridConfig:     reliableGrid(),
		Planner:        cfg.PlanParams,
		Store:          fenced,
		QueueCapacity:  queueCapacity + cfg.RecoverPending,
		RetainFinished: cfg.RecoverFinished + cfg.RecoverPending + retainFinished,
		PostProcess: func(act *workflow.Activity, produced []*workflow.DataItem, visit int) {
			resolve(act, produced, visit)
			if gated.Load() {
				<-release
			}
		},
	})
	if err != nil {
		fs.Close()
		return "", err
	}
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			fenced.Fence()
			close(release)
			env.Close()
		})
	}
	defer shutdown()

	send := &engineSender{eng: env.Engine, tenants: []string{""}, newTask: fig10Task}
	// nextOf hands out n ops named prefix-1 ... prefix-n, then nil.
	nextOf := func(prefix string, n int) func(int) *op {
		var i atomic.Int64
		return func(int) *op {
			k := int(i.Add(1))
			if k > n {
				return nil
			}
			return &op{id: fmt.Sprintf("%s-%d", prefix, k)}
		}
	}
	// A wide window lets the admissions and completions share group commits.
	for _, o := range closedLoop(send, clients, 1, 32, nextOf("fin", cfg.RecoverFinished), checkFig10) {
		if o.err != "" {
			return "", fmt.Errorf("building the crash image: %s", o.err)
		}
	}
	gated.Store(true)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	next := nextOf("pend", cfg.RecoverPending)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for o := next(0); o != nil && errs[c] == nil; o = next(0) {
				errs[c] = send.send(o)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return "", fmt.Errorf("building the crash image: %w", err)
		}
	}
	if err := fs.(store.DurableCopier).CopyDurable(image); err != nil {
		return "", err
	}
	shutdown()
	return image, nil
}

// copyDir clones the (closed) crash image for one more life, and has the
// clone on disk when it returns: left dirty in the page cache, it would be
// written out by the first fsync of the recovery being timed.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err == nil {
			if _, err = io.Copy(out, in); err == nil {
				err = out.Sync()
			}
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		in.Close()
		if err != nil {
			return err
		}
	}
	d, err := os.Open(dst)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// runRecoverFile: build the crash image (that is the set-up), then for the
// length of the window: clone the image, time core.NewEnvironment +
// Engine.Recover() + the drain until every re-queued task is terminal, and
// check the second life against the first. An op is one journaled task
// brought back; latency_p50_ms is the median time of a whole recovery.
func runRecoverFile(cfg Config, tr *tracer) (*outcome, error) {
	cfg.SetupReps = min(cfg.SetupReps, 3) // an image build is seconds, not milliseconds
	image, setup, err := timeSetups(cfg,
		func(rep int) (string, error) { return buildCrashImage(cfg, rep) },
		func(dir string) { os.RemoveAll(dir) })
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(image)
	out := &outcome{setup: setup, layer: metricSet{}, info: map[string]any{}}

	var build, replay, drain, open []float64
	begin := time.Now()
	end := begin.Add(seconds(cfg.Seconds))
	for life := 1; life == 1 || time.Now().Before(end); life++ {
		dir := storeDir(cfg, "recover-life", life)
		if err := copyDir(image, dir); err != nil {
			return nil, err
		}
		var executions atomic.Int64
		resolve := virolab.ResolutionHook(nil)
		opts := core.Options{
			Catalog:        virolab.Catalog(),
			GridConfig:     reliableGrid(),
			Planner:        cfg.PlanParams,
			QueueCapacity:  queueCapacity + cfg.RecoverPending,
			RetainFinished: cfg.RecoverFinished + cfg.RecoverPending + retainFinished,
			PostProcess: func(act *workflow.Activity, produced []*workflow.DataItem, visit int) {
				resolve(act, produced, visit)
				executions.Add(1)
			},
		}
		p0 := readProc()
		if tr == nil {
			opts.StoreDSN = "file:" + dir
		} else {
			st, err := store.Open("file:"+dir, store.Options{})
			if err != nil {
				return nil, err
			}
			open = append(open, time.Since(p0.at).Seconds())
			opts.Store = &tracedStore{Store: st, t: tr}
		}
		env, err := core.NewEnvironment(opts)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		report, rerr := env.Engine.Recover()
		t2 := time.Now()
		pending := append(append(append([]string(nil), report.Requeued...), report.Restarted...), report.Resumed...)
		done := drainTasks(env.Engine, pending)
		p1 := readProc()
		out.proc.add(p0, p1)

		// The second life against the first.
		before := out.completed
		out.attempted += cfg.RecoverFinished + cfg.RecoverPending
		switch {
		case rerr != nil:
			out.fail("life %d: recover: %v", life, rerr)
		case report.Terminal != cfg.RecoverFinished:
			out.fail("life %d: %d terminal journals restored, want %d", life, report.Terminal, cfg.RecoverFinished)
		case report.Total() != cfg.RecoverPending:
			out.fail("life %d: %d tasks re-queued, want %d", life, report.Total(), cfg.RecoverPending)
		default:
			out.completed += report.Terminal
		}
		for _, o := range done {
			if o.err != "" {
				out.fail("life %d: %s", life, o.err)
			} else {
				out.completed++
			}
		}
		// Only the re-queued tasks may execute anything in the second life.
		if got, want := executions.Load(), int64(fig10Executions*len(pending)); got != want {
			out.fail("life %d: %d activity executions, want %d (a finished task ran again?)", life, got, want)
		}
		// One sample per recovery.
		smp := sample{ops: out.completed - before}
		smp.proc.add(p0, p1)
		out.samples = append(out.samples, smp)
		out.latency = append(out.latency, ms(p1.at.Sub(p0.at)))
		build = append(build, t1.Sub(p0.at).Seconds())
		replay = append(replay, t2.Sub(t1).Seconds())
		drain = append(drain, p1.at.Sub(t2).Seconds())
		if tr != nil {
			root := len(out.spans) + 1
			since := func(t time.Time) int64 { return t.Sub(begin).Nanoseconds() }
			id := fmt.Sprintf("life-%d", life)
			out.spans = append(out.spans,
				span{ID: root, Op: id, Name: "op", StartNs: since(p0.at), EndNs: since(p1.at)},
				span{ID: root + 1, Parent: root, Op: id, Name: "core.new_environment", StartNs: since(p0.at), EndNs: since(t1)},
				span{ID: root + 2, Parent: root, Op: id, Name: "engine.recover", StartNs: since(t1), EndNs: since(t2)},
				span{ID: root + 3, Parent: root, Op: id, Name: "engine.drain", StartNs: since(t2), EndNs: since(p1.at)})
		}
		if life == 1 {
			runtimeLayer(out.layer, out.proc)
		}
		env.Close()
		os.RemoveAll(dir)
	}
	out.info["recoveries"] = len(out.latency)
	out.info["recovery_s"] = median(out.latency) / 1000
	out.budget = []budgetRow{
		{"core.new_environment (store open + replay of the log)", 1000 * median(build)},
		{"engine.recover (journal replay)", 1000 * median(replay)},
		{"engine.drain (re-queued tasks enacted)", 1000 * median(drain)},
	}
	out.layer["engine.recover_replay_s"] = median(replay)
	out.layer["engine.recover_drain_s"] = median(drain)
	out.layer["store.open_s"] = median(open)
	out.layer["client.latency_max_ms"] = quantile(out.latency, 1)
	out.layer["client.failed_share"] = float64(out.attempted-out.completed) / float64(max(out.attempted, 1))
	if tr != nil {
		storeCallLayer(out.layer, tr, begin, time.Now(), out.completed)
	}
	return out, nil
}

// drainTasks polls the given tasks, split between the clients, until each is
// terminal. They finish roughly in admission order, so each client waits on
// the head of its list.
func drainTasks(eng *engine.Engine, ids []string) []*op {
	s := &engineSender{eng: eng}
	done := make([][]*op, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(ids); k += clients {
				o := &op{id: ids[k], due: start}
				for !pollHead(s, o, checkGoal) {
					time.Sleep(pollEvery)
				}
				done[c] = append(done[c], o)
			}
		}(c)
	}
	wg.Wait()
	return slices.Concat(done...)
}
