package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
)

// Tracing from outside. The traced pass wraps the seams the product already
// has — the store handed in through core.Options.Store and the http.Handler
// of httpapi.Server — and records one event per call in memory. The other
// spans of an op (client send, engine.queue_wait, engine.run) are built after
// the run from the op's own clocks and the stamps in its terminal
// TaskStatus. Nothing here touches the program under test; spans inside it
// are a later change.

// event is one call through a wrapped seam.
type event struct {
	name       string // store.put, store.put_async, store.replace, store.get, httpapi.post, httpapi.get
	op         string // op id, when the call names one
	start, end time.Time
	n          int // bytes written, or the HTTP status
}

type tracer struct {
	mu     sync.Mutex
	events []event
}

func (t *tracer) record(e event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// tracedStore times every data call of the wrapped Store. Embedding keeps
// the rest of the interface (Keys, Delete, Sync, Stats, Close) untouched.
type tracedStore struct {
	store.Store
	t *tracer
}

// opOfKey maps a journal key to the task it belongs to.
func opOfKey(key string) string {
	id, _ := strings.CutPrefix(key, engine.JournalPrefix)
	return id
}

func (s *tracedStore) Put(key string, value []byte) (int, error) {
	t0 := time.Now()
	v, err := s.Store.Put(key, value)
	s.t.record(event{"store.put", opOfKey(key), t0, time.Now(), len(value)})
	return v, err
}

func (s *tracedStore) PutAsync(key string, value []byte) (int, error) {
	t0 := time.Now()
	v, err := s.Store.PutAsync(key, value)
	s.t.record(event{"store.put_async", opOfKey(key), t0, time.Now(), len(value)})
	return v, err
}

func (s *tracedStore) Replace(key string, value []byte) (int, error) {
	t0 := time.Now()
	v, err := s.Store.Replace(key, value)
	s.t.record(event{"store.replace", opOfKey(key), t0, time.Now(), len(value)})
	return v, err
}

func (s *tracedStore) Get(key string, version int) ([]byte, int, bool, error) {
	t0 := time.Now()
	val, ver, found, err := s.Store.Get(key, version)
	s.t.record(event{"store.get", opOfKey(key), t0, time.Now(), 0})
	return val, ver, found, err
}

// statusWriter remembers the response status for the handler wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traceHandler times each request of the wrapped handler. The client names
// the op in X-Request-Id on its POST; a GET names it in the path.
func traceHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		e := event{start: t0, end: time.Now(), n: sw.status}
		if r.Method == http.MethodPost {
			e.name, e.op = "httpapi.post", r.Header.Get("X-Request-Id")
		} else {
			e.name, e.op = "httpapi.get", r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
		}
		t.record(e)
	})
}

// --- reading the events back ------------------------------------------------

// durations returns the call times of one event name, in microseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, e := range t.events {
		if e.name == name {
			out = append(out, us(e.end.Sub(e.start)))
		}
	}
	return out
}

// storeUse is what the store cost one op.
type storeUse struct {
	writes        int
	bytes         int
	blockedAdmit  time.Duration // store time before the task started (write-ahead)
	blockedRun    time.Duration // store time while it ran (started + terminal records)
	handlerIn     time.Time     // POST handler entry, when the op came over HTTP
	handlerInSeen bool
}

// perOp folds the events by op. started tells, per op, when its run began.
func (t *tracer) perOp(ops []*op) map[string]*storeUse {
	byID := make(map[string]*op, len(ops))
	for _, o := range ops {
		byID[o.id] = o
	}
	use := make(map[string]*storeUse, len(ops))
	for _, e := range t.events {
		o := byID[e.op]
		if o == nil {
			continue
		}
		u := use[e.op]
		if u == nil {
			u = &storeUse{}
			use[e.op] = u
		}
		switch {
		case e.name == "httpapi.post":
			u.handlerIn, u.handlerInSeen = e.start, true
		case strings.HasPrefix(e.name, "store.") && e.name != "store.get":
			u.writes++
			u.bytes += e.n
			if e.start.Before(o.started()) {
				u.blockedAdmit += e.end.Sub(e.start)
			} else {
				u.blockedRun += e.end.Sub(e.start)
			}
		}
	}
	return use
}

// --- the latency budget -----------------------------------------------------

// budgetRow is one line of the budget table, in milliseconds.
type budgetRow struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// budget attributes the median client latency to layers. The rows are means
// over the twentieth of the ops whose latency is nearest the median (the
// 47.5th to 52.5th percentile), so they describe a typical op and sum to
// (about) the median. An op's life is
// cut at stamps taken from outside:
//
//	due ──► sent ──► handler entry ──► Submitted ──► Started ──► Finished
//	 send_lag  unattributed      httpapi    engine.queue_wait   engine.run
//
// send_lag is how late the open-loop generator ran (zero in a closed loop).
// In-process workloads have no handler; their second row is the client's
// build+submit time up to the Submitted stamp (`client.submit`). queue_wait
// is split into the write-ahead journal wait (store.blocked) and the rest;
// run is split into the coordinator's unloaded service time from the probe
// (capped at what is left), the store wait, and a remainder, which is
// therefore engine overhead plus waiting for a CPU or a lock.
func (t *tracer) budget(ops []*op, coordProbe time.Duration) (rows []budgetRow, medianMs float64) {
	var good []*op
	for _, o := range ops {
		if o.err == "" {
			good = append(good, o)
		}
	}
	if len(good) == 0 {
		return nil, 0
	}
	sort.Slice(good, func(i, j int) bool { return good[i].latency() < good[j].latency() })
	lat := make([]float64, len(good))
	for i, o := range good {
		lat[i] = ms(o.latency())
	}
	lo := len(good) * 19 / 40
	band := good[lo:max(len(good)*21/40, lo+1)]
	use := t.perOp(band)

	var lag, first, qStore, qRest, coord, rStore, rRest float64
	firstName := "client.submit"
	for _, o := range band {
		u := use[o.id]
		if u == nil {
			u = &storeUse{}
		}
		lag += ms(o.sent.Sub(o.due))
		if u.handlerInSeen {
			// Over HTTP the stretch from the send to the handler's entry
			// (building the body, loopback, net/http) belongs to no layer
			// of the repo and is left to the unattributed row.
			firstName = "httpapi"
			first += ms(o.st.Submitted.Sub(u.handlerIn))
		} else {
			first += ms(o.st.Submitted.Sub(o.sent))
		}
		wait := o.started().Sub(o.st.Submitted)
		qs := min(u.blockedAdmit, wait)
		qStore += ms(qs)
		qRest += ms(wait - qs)
		run := o.st.Finished.Sub(o.started())
		rs := min(u.blockedRun, run)
		c := min(coordProbe, run-rs)
		coord += ms(c)
		rStore += ms(rs)
		rRest += ms(run - rs - c)
	}
	n := float64(len(band))
	return []budgetRow{
		{"client.send_lag", lag / n},
		{firstName, first / n},
		{"engine.queue_wait/store.blocked", qStore / n},
		{"engine.queue_wait/rest", qRest / n},
		{"engine.run/coordination", coord / n},
		{"engine.run/store.blocked", rStore / n},
		{"engine.run/remainder", rRest / n},
	}, median(lat)
}

// closeBudget appends the unattributed row — the median minus what the rows
// cover, so the table always adds up — and returns its share of the median.
func closeBudget(rows []budgetRow, medianMs float64) ([]budgetRow, float64) {
	if medianMs <= 0 {
		return rows, 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.Ms
	}
	return append(rows, budgetRow{"unattributed", medianMs - sum}), (medianMs - sum) / medianMs
}

func printBudget(workload string, rows []budgetRow, medianMs float64) {
	fmt.Printf("budget %s: median client latency %.4f ms\n", workload, medianMs)
	for _, r := range rows {
		fmt.Printf("budget %s   %-34s %10.4f ms %6.1f%%\n", workload, r.Name, r.Ms, 100*r.Ms/medianMs)
	}
}

// --- the trace file ---------------------------------------------------------

// span is one line of trace-<workload>.json.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: a root
	Op      string `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"` // since the first op's due instant
	EndNs   int64  `json:"endNs"`
}

// maxTraceOps bounds the trace file: spans of the first ops only.
const maxTraceOps = 4000

// spans builds the span tree of each op: a root from due to Finished, with
// the client's submit, the engine's queue_wait and run, and under those the
// wrapped calls that fell inside them.
func (t *tracer) spans(ops []*op) []span {
	if len(ops) > maxTraceOps {
		ops = ops[:maxTraceOps]
	}
	if len(ops) == 0 {
		return nil
	}
	epoch := ops[0].due
	for _, o := range ops {
		if o.due.Before(epoch) {
			epoch = o.due
		}
	}
	byOp := map[string][]event{}
	for _, e := range t.events {
		byOp[e.op] = append(byOp[e.op], e)
	}
	var out []span
	add := func(parent int, opID, name string, from, to time.Time) int {
		id := len(out) + 1
		out = append(out, span{ID: id, Parent: parent, Op: opID, Name: name,
			StartNs: from.Sub(epoch).Nanoseconds(), EndNs: to.Sub(epoch).Nanoseconds()})
		return id
	}
	for _, o := range ops {
		if o.st.Finished.IsZero() {
			continue
		}
		root := add(0, o.id, "op", o.due, o.st.Finished)
		send := add(root, o.id, "client.send", o.sent, o.sent.Add(o.build+o.submit))
		wait := add(root, o.id, "engine.queue_wait", o.st.Submitted, o.started())
		run := add(root, o.id, "engine.run", o.started(), o.st.Finished)
		for _, e := range byOp[o.id] {
			parent := run
			switch {
			case e.name == "httpapi.post":
				parent = send
			case e.name == "httpapi.get":
				parent = root
			case e.start.Before(o.started()):
				parent = wait
			}
			add(parent, o.id, e.name, e.start, e.end)
		}
	}
	return out
}

func writeTrace(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
