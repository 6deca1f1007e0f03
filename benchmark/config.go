package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/planner"
	"repro/internal/store"
)

// Config sizes one run of one workload. The CLI uses defaultConfig and only
// lets the caller choose the seed, the window and tracing; the smoke test
// passes a toy Config through the same code.
type Config struct {
	Seed    int64
	Seconds float64 // the timed window
	Traced  bool
	OutDir  string // temp stores and trace files; on the repo's filesystem, not /tmp

	Warmup    float64 // seconds of CPU warm-up before every run, and of untimed load before the window on the steady workloads
	SetupReps int     // set-ups timed per run; setup_s is their median

	ServeRate       float64        // serve_open: offered tasks/s
	ReplanVariants  int            // replan_mix: case variants per block (one miss and three hits each)
	RecoverFinished int            // recover_file: finished tasks in the crash image
	RecoverPending  int            // recover_file: accepted-but-unfinished tasks in it
	PlanParams      planner.Params // plan_cold and the environments' planner defaults
	ProbeTasks      int            // enactments per coordination probe
	ProbeIters      int            // iterations of the micro probes
}

// The ISSUE sized the windows at 20 s and the crash image at 10 000 + 4 000
// tasks. The driver's budget (114 runs in 3420 s, set-up repeated inside
// each, so 30 s a run) fits the window but not the image, which is scaled to
// what three builds per run can afford.
func defaultConfig() Config {
	return Config{
		Seed:            1,
		Seconds:         defaultSeconds,
		OutDir:          "out",
		Warmup:          1.5,
		SetupReps:       15,
		ServeRate:       300,
		ReplanVariants:  40,
		RecoverFinished: 2500,
		RecoverPending:  1000,
		PlanParams:      planner.DefaultParams(), // Table 1
		ProbeTasks:      1000,
		ProbeIters:      20000,
	}
}

// defaultSeconds must equal run_seconds in BENCHMARK.json (the smoke test
// checks); it is what the suite passes to each child.
const defaultSeconds = 20

// sample is one slice of the timed window: a fixed stretch of a steady
// workload, one block of replan_mix, one recovery of recover_file, one pool
// of plans of plan_cold. The per-op rates and costs are medians over a run's
// samples, so a burst from a noisy neighbour spoils one sample and not the
// run's reading.
type sample struct {
	ops  int       // ops that passed every check and completed in the slice
	proc procDelta // process counters over the slice
}

// outcome is what a workload hands back for the generic accounting.
type outcome struct {
	setup     []float64 // seconds, one per set-up repetition
	samples   []sample  // the window, slice by slice
	attempted int       // ops attempted in the window
	completed int       // ops that passed every check
	errs      []string  // one text per failed op or failed check, in order
	latency   []float64 // ms, one per completed op, all slices together
	proc      procDelta // process counters over the whole window
	layer     metricSet // per-layer values the workload measured itself
	info      map[string]any
	spans     []span

	// For the budget table of a traced run: the task workloads hand over
	// their ops and events, the others the rows they measured themselves.
	ops    []*op
	tr     *tracer
	budget []budgetRow
}

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// RunResult is one run of one workload as result.json keeps it.
type RunResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"` // the first three
	Metrics   map[string]Metric `json:"metrics"`
	Info      map[string]any    `json:"info,omitempty"`
	Budget    []budgetRow       `json:"budget,omitempty"`
	BudgetMs  float64           `json:"budgetMedianMs,omitempty"`
}

// endToEndOf turns an outcome into the declared end-to-end metrics. The
// latency is the median over every op of the window; a rate or a cost per op
// is the median over the run's samples of that sample's own reading.
func endToEndOf(o *outcome) metricSet {
	series := sampleSeries(o)
	return metricSet{
		"setup_s":         median(o.setup),
		"goodput_per_s":   median(series["goodput_per_s"]),
		"latency_p50_ms":  median(o.latency),
		"cpu_ms_per_op":   median(series["cpu_ms_per_op"]),
		"allocs_per_op":   median(series["allocs_per_op"]),
		"alloc_kb_per_op": median(series["alloc_kb_per_op"]),
	}
}

// sampleSeries is each sample's own reading of the rates and per-op costs, in
// order; the run file keeps it, so that a noisy run can be told from a slow
// one.
func sampleSeries(o *outcome) map[string][]float64 {
	series := map[string][]float64{}
	for _, s := range o.samples {
		if s.ops == 0 {
			continue
		}
		n := float64(s.ops)
		for name, v := range map[string]float64{
			"goodput_per_s":   n / s.proc.wall.Seconds(),
			"cpu_ms_per_op":   ms(s.proc.cpu) / n,
			"allocs_per_op":   float64(s.proc.mallocs) / n,
			"alloc_kb_per_op": float64(s.proc.allocBytes) / 1024 / n,
		} {
			series[name] = append(series[name], v)
		}
	}
	return series
}

// runtimeLayer fills the runtime.* metrics; call before tearing down.
func runtimeLayer(m metricSet, d procDelta) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.gc_cycles"] = float64(d.gcCycles)
	m["runtime.gc_pause_ms_total"] = float64(d.gcPause) / float64(time.Millisecond)
	m["runtime.peak_rss_mb"] = peakRSSMB()
	m["runtime.heap_inuse_mb_end"] = float64(ms.HeapInuse) / (1 << 20)
	m["runtime.goroutines_end"] = float64(runtime.NumGoroutine())
}

// timeSetups runs build SetupReps times and keeps the last product, tearing
// the others down; the times go to setup_s.
func timeSetups[T any](cfg Config, build func(rep int) (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	var times []float64
	reps := max(cfg.SetupReps, 1)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := build(i)
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < reps-1 {
			teardown(v)
		} else {
			last = v
		}
	}
	return last, times, nil
}

// sliceLength is how long one sample of a steady workload is.
const sliceLength = 2 * time.Second

// window reads the process counters (and, at its ends, the store's) at the
// boundaries of equal slices between two instants while the clients run:
// start it before the load, wait after.
type window struct {
	snaps  []procSnap // one per boundary: len = slices + 1
	s0, s1 store.Stats
	done   chan struct{}
}

func startWindow(from, to time.Time, st store.Store) *window {
	slices := max(1, int(to.Sub(from)/sliceLength))
	w := &window{done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for i := 0; i <= slices; i++ {
			time.Sleep(time.Until(from.Add(to.Sub(from) * time.Duration(i) / time.Duration(slices))))
			if i == 0 {
				w.s0 = st.Stats()
			}
			w.snaps = append(w.snaps, readProc())
		}
		w.s1 = st.Stats()
	}()
	return w
}

// mark adds a boundary now; for workloads that cut their own slices.
func (w *window) mark(st store.Store) {
	if len(w.snaps) == 0 {
		w.s0 = st.Stats()
	}
	w.s1 = st.Stats()
	w.snaps = append(w.snaps, readProc())
}

func (w *window) begin() time.Time { return w.snaps[0].at }
func (w *window) end() time.Time   { return w.snaps[len(w.snaps)-1].at }

// whole is the counters' change over the whole window.
func (w *window) whole() procDelta {
	var d procDelta
	d.add(w.snaps[0], w.snaps[len(w.snaps)-1])
	return d
}

// contains reports whether an op belongs to the window: it finished inside
// it, or — when it never finished — was due inside it.
func (w *window) contains(o *op) bool {
	at := o.st.Finished
	if at.IsZero() {
		at = o.due
	}
	return !at.Before(w.begin()) && at.Before(w.end())
}

// samples cuts the window's good ops into its slices by finish time.
func (w *window) samples(ops []*op) []sample {
	out := make([]sample, len(w.snaps)-1)
	for i := range out {
		out[i].proc.add(w.snaps[i], w.snaps[i+1])
	}
	for _, o := range ops {
		if o.err != "" {
			continue
		}
		i := sort.Search(len(out), func(i int) bool { return o.st.Finished.Before(w.snaps[i+1].at) })
		if i < len(out) {
			out[i].ops++
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
