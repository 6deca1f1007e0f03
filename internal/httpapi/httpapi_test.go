package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/services"
	"repro/internal/telemetry"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

func testServer(t testing.TB) (*Server, *httptest.Server) {
	return testServerWith(t, nil)
}

// testServerWith is testServer with an environment-options hook applied
// before the environment is built; the fault-tolerance tests use it to
// install blocking post-process hooks.
func testServerWith(t testing.TB, mod func(*core.Options)) (*Server, *httptest.Server) {
	t.Helper()
	params := planner.DefaultParams()
	params.PopulationSize = 120
	params.Generations = 15
	opts := core.Options{
		Catalog:     virolab.Catalog(),
		Planner:     params,
		PostProcess: virolab.ResolutionHook(nil),
	}
	if mod != nil {
		mod(&opts)
	}
	env, err := core.NewEnvironment(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	s := New(env)
	s.Logger = nil
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode
}

// nodesPage decodes the paginated nodes listing.
type nodesPage struct {
	Items  []nodeView `json:"items"`
	Total  int        `json:"total"`
	Limit  int        `json:"limit"`
	Offset int        `json:"offset"`
}

// tasksPage decodes the paginated task listing.
type tasksPage struct {
	Items  []TaskView `json:"items"`
	Total  int        `json:"total"`
	Limit  int        `json:"limit"`
	Offset int        `json:"offset"`
}

func TestGridViews(t *testing.T) {
	_, ts := testServer(t)
	var nodes nodesPage
	if code := getJSON(t, ts.URL+"/api/v1/nodes", &nodes); code != 200 {
		t.Fatalf("nodes status %d", code)
	}
	if len(nodes.Items) == 0 || nodes.Total != len(nodes.Items) {
		t.Fatalf("nodes page = %+v", nodes)
	}
	if !nodes.Items[0].Up || nodes.Items[0].Speed <= 0 {
		t.Errorf("node view = %+v", nodes.Items[0])
	}
	var containers []containerView
	if code := getJSON(t, ts.URL+"/api/v1/containers", &containers); code != 200 || len(containers) == 0 {
		t.Fatalf("containers status %d len %d", code, len(containers))
	}
	var svcs []serviceView
	if code := getJSON(t, ts.URL+"/api/v1/services", &svcs); code != 200 || len(svcs) != 4 {
		t.Fatalf("services status %d len %d", code, len(svcs))
	}
	var classes []any
	if code := getJSON(t, ts.URL+"/api/v1/classes", &classes); code != 200 || len(classes) == 0 {
		t.Fatalf("classes status %d len %d", code, len(classes))
	}
}

// TestRouteTable drives every simple GET route through the v1 surface and
// checks the former /api alias of each answers 410.
func TestRouteTable(t *testing.T) {
	_, ts := testServer(t)
	paths := []string{"/nodes", "/containers", "/services", "/classes", "/tasks", "/plans", "/archive", "/metrics", "/store", "/stats"}
	for _, p := range paths {
		resp, err := http.Get(ts.URL + "/api/v1" + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET /api/v1%s = %d", p, resp.StatusCode)
		}
		if rid := resp.Header.Get("X-Request-Id"); rid == "" {
			t.Errorf("GET /api/v1%s: no X-Request-Id", p)
		}
		if dep := resp.Header.Get("Deprecation"); dep != "" {
			t.Errorf("GET /api/v1%s: v1 wrongly marked deprecated", p)
		}

		resp, err = http.Get(ts.URL + "/api" + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Errorf("GET /api%s = %d, want 410", p, resp.StatusCode)
		}
	}
}

// TestErrorEnvelope checks the uniform error body on every failure shape,
// including the JSON 404/405 fallbacks the stdlib mux would answer in plain
// text.
func TestErrorEnvelope(t *testing.T) {
	_, ts := testServer(t)
	do := func(method, path string) (*http.Response, errorBody) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s %s: body is not the JSON envelope: %v", method, path, err)
		}
		return resp, body
	}
	cases := []struct {
		name, method, path string
		wantStatus         int
		wantCode           string
	}{
		{"unknown path", http.MethodGet, "/nope", http.StatusNotFound, "not_found"},
		{"unknown api path", http.MethodGet, "/api/v1/nope", http.StatusNotFound, "not_found"},
		{"bare version root", http.MethodGet, "/api/v1", http.StatusNotFound, "not_found"},
		{"wrong method", http.MethodDelete, "/api/v1/tasks", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"removed alias", http.MethodPut, "/api/nodes", http.StatusGone, "gone"},
		{"ghost task", http.MethodGet, "/api/v1/tasks/ghost", http.StatusNotFound, "not_found"},
		{"ghost trace", http.MethodGet, "/api/v1/tasks/ghost/trace", http.StatusNotFound, "not_found"},
		{"ghost plan", http.MethodGet, "/api/v1/plans/ghost", http.StatusNotFound, "plan_not_found"},
		{"ghost archive", http.MethodGet, "/api/v1/archive/ghost", http.StatusNotFound, "not_found"},
		{"bad limit", http.MethodGet, "/api/v1/nodes?limit=x", http.StatusBadRequest, "bad_request"},
		{"negative offset", http.MethodGet, "/api/v1/tasks?offset=-1", http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		resp, body := do(c.method, c.path)
		if resp.StatusCode != c.wantStatus {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.wantStatus)
		}
		if body.Error.Code != c.wantCode {
			t.Errorf("%s: code %q, want %q", c.name, body.Error.Code, c.wantCode)
		}
		if body.Error.Message == "" {
			t.Errorf("%s: empty message", c.name)
		}
		if body.RequestID == "" || body.RequestID != resp.Header.Get("X-Request-Id") {
			t.Errorf("%s: requestId %q vs header %q", c.name, body.RequestID, resp.Header.Get("X-Request-Id"))
		}
	}
	// 405 carries the allowed methods.
	resp, _ := do(http.MethodDelete, "/api/v1/tasks")
	if allow := resp.Header.Get("Allow"); allow != "GET, POST" {
		t.Errorf("Allow = %q, want \"GET, POST\"", allow)
	}
}

// TestPagination exercises limit/offset on both paginated listings,
// including the edge cases. Five real submissions pile up behind a single
// worker whose post-process hook blocks, so the listing is deterministic:
// one running task and four queued ones, in admission order.
func TestPagination(t *testing.T) {
	unblock := make(chan struct{})
	_, ts := testServerWith(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.PostProcess = func(*workflow.Activity, []*workflow.DataItem, int) { <-unblock }
	})
	// LIFO cleanup: release the worker before the server and environment
	// close, or Engine.Close would wait on the blocked enactment forever.
	t.Cleanup(func() { close(unblock) })
	for _, id := range []string{"T-a", "T-b", "T-c", "T-d", "T-e"} {
		if code := postJSON(t, ts.URL+"/api/v1/tasks", forkSubmission(id), nil); code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", id, code)
		}
	}

	var p tasksPage
	if code := getJSON(t, ts.URL+"/api/v1/tasks", &p); code != 200 {
		t.Fatalf("tasks status %d", code)
	}
	if p.Total != 5 || len(p.Items) != 5 || p.Limit != -1 || p.Offset != 0 {
		t.Fatalf("default page = %+v", p)
	}
	// Stable submission order, not map order.
	for i, want := range []string{"T-a", "T-b", "T-c", "T-d", "T-e"} {
		if p.Items[i].ID != want {
			t.Errorf("item %d = %s, want %s", i, p.Items[i].ID, want)
		}
	}

	cases := []struct {
		query     string
		wantIDs   []string
		wantTotal int
	}{
		{"?limit=2", []string{"T-a", "T-b"}, 5},
		{"?limit=2&offset=2", []string{"T-c", "T-d"}, 5},
		{"?limit=0", []string{}, 5},   // explicit empty page
		{"?offset=99", []string{}, 5}, // offset past the end
		{"?limit=99&offset=4", []string{"T-e"}, 5},
	}
	for _, c := range cases {
		var got tasksPage
		if code := getJSON(t, ts.URL+"/api/v1/tasks"+c.query, &got); code != 200 {
			t.Fatalf("%s: status %d", c.query, code)
		}
		if got.Total != c.wantTotal || len(got.Items) != len(c.wantIDs) {
			t.Errorf("%s: page = %+v", c.query, got)
			continue
		}
		for i, want := range c.wantIDs {
			if got.Items[i].ID != want {
				t.Errorf("%s: item %d = %s, want %s", c.query, i, got.Items[i].ID, want)
			}
		}
	}

	// Nodes pagination slices the same way.
	var all nodesPage
	getJSON(t, ts.URL+"/api/v1/nodes", &all)
	var sliced nodesPage
	getJSON(t, ts.URL+"/api/v1/nodes?limit=1&offset=1", &sliced)
	if len(sliced.Items) != 1 || sliced.Total != all.Total || sliced.Items[0].ID != all.Items[1].ID {
		t.Errorf("nodes slice = %+v (all = %+v)", sliced, all)
	}
}

func TestSubmitAndPollTask(t *testing.T) {
	_, ts := testServer(t)
	sub := TaskSubmission{
		ID:   "T-http",
		Name: "virolab over http",
		PDL: `BEGIN,
  POD(D1, D7 -> D8);
  P3DR1 = P3DR(D2, D7, D8 -> D9);
  {ITERATIVE {COND D12.value > 8}
    {POR(D5, D7, D8, D9 -> D8);
     {FORK
       {P3DR2 = P3DR(D3, D7, D8 -> D10)}
       {P3DR3 = P3DR(D4, D7, D8 -> D11)}
       {P3DR4 = P3DR(D2, D7, D8 -> D9)}
     JOIN};
     PSF(D10, D11 -> D12)}
  },
END`,
		Goal: []string{virolab.GoalCondition},
	}
	for _, d := range virolab.InitialData() {
		item := DataItemJSON{Name: d.Name, Classification: d.Classification()}
		sub.InitialData = append(sub.InitialData, item)
	}
	var accepted map[string]any
	if code := postJSON(t, ts.URL+"/api/v1/tasks", sub, &accepted); code != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", code, accepted)
	}
	if accepted["policy"] == nil {
		t.Fatalf("202 body missing resolved policy: %v", accepted)
	}

	deadline := time.Now().Add(30 * time.Second)
	var view TaskView
	for {
		if code := getJSON(t, ts.URL+"/api/v1/tasks/T-http", &view); code != 200 {
			t.Fatalf("poll status %d", code)
		}
		if view.Status != "queued" && view.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("task did not finish in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.Status != "succeeded" || !view.Completed {
		t.Fatalf("task view = %+v", view)
	}
	if view.Executed != 17 {
		t.Errorf("executed = %d, want 17", view.Executed)
	}
	if view.Submitted.IsZero() {
		t.Error("no submission time")
	}
	found := false
	for _, line := range view.FinalData {
		if strings.HasPrefix(line, "D12{") && strings.Contains(line, "value=7.8") {
			found = true
		}
	}
	if !found {
		t.Errorf("final data missing refined D12: %v", view.FinalData)
	}

	// The list view includes it.
	var list tasksPage
	getJSON(t, ts.URL+"/api/v1/tasks", &list)
	if list.Total != 1 || len(list.Items) != 1 || list.Items[0].ID != "T-http" {
		t.Errorf("list = %+v", list)
	}
	// Duplicate submission conflicts.
	if code := postJSON(t, ts.URL+"/api/v1/tasks", sub, nil); code != http.StatusConflict {
		t.Errorf("duplicate submit status %d", code)
	}
}

// TestQueueBackpressure drives a burst larger than the queue capacity
// through POST /api/v1/tasks: the overflow submission gets 429 queue_full
// with a Retry-After header and the engine.admission.rejected counter moves,
// while every accepted task still completes once the worker unblocks.
func TestQueueBackpressure(t *testing.T) {
	started := make(chan struct{})
	gate := make(chan struct{})
	var startOnce, gateOnce sync.Once
	open := func() { gateOnce.Do(func() { close(gate) }) }
	_, ts := testServerWith(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.QueueCapacity = 2
		opts.PostProcess = func(*workflow.Activity, []*workflow.DataItem, int) {
			startOnce.Do(func() { close(started) })
			<-gate
		}
	})
	t.Cleanup(open)

	// The blocker occupies the single worker; wait until it actually runs so
	// it no longer counts against queue capacity.
	if code := postJSON(t, ts.URL+"/api/v1/tasks", forkSubmission("T-blk"), nil); code != http.StatusAccepted {
		t.Fatalf("blocker submit status %d", code)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked the blocker up")
	}
	for i, id := range []string{"T-q1", "T-q2"} {
		var accepted struct {
			Status        string `json:"status"`
			QueuePosition int    `json:"queuePosition"`
		}
		if code := postJSON(t, ts.URL+"/api/v1/tasks", forkSubmission(id), &accepted); code != http.StatusAccepted {
			t.Fatalf("submit %s status %d", id, code)
		}
		if accepted.Status != "queued" || accepted.QueuePosition != i+1 {
			t.Errorf("submission %s = %+v", id, accepted)
		}
	}

	// The queue is full: the next submission is rejected with Retry-After.
	data, _ := json.Marshal(forkSubmission("T-over"))
	resp, err := http.Post(ts.URL+"/api/v1/tasks", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || body.Error.Code != "queue_full" {
		t.Fatalf("overflow submit = %d %+v, want 429 queue_full", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}

	var snap telemetry.Snapshot
	getJSON(t, ts.URL+"/api/v1/metrics", &snap)
	if snap.Counters["engine.admission.rejected"] != 1 {
		t.Errorf("rejected counter = %d, want 1", snap.Counters["engine.admission.rejected"])
	}
	var stats struct {
		Capacity int `json:"capacity"`
		Depth    int `json:"depth"`
		Workers  int `json:"workers"`
		Busy     int `json:"busy"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/queue", &stats); code != 200 {
		t.Fatalf("queue status %d", code)
	}
	if stats.Capacity != 2 || stats.Depth != 2 || stats.Workers != 1 || stats.Busy != 1 {
		t.Errorf("queue stats = %+v", stats)
	}

	open()
	for _, id := range []string{"T-blk", "T-q1", "T-q2"} {
		if view := pollStatus(t, ts.URL+"/api/v1/tasks/"+id, settled); view.Status != "succeeded" {
			t.Errorf("task %s = %+v", id, view)
		}
	}
	// The rejected task left no record.
	if code := getJSON(t, ts.URL+"/api/v1/tasks/T-over", nil); code != http.StatusNotFound {
		t.Errorf("rejected task lookup status %d", code)
	}
}

// TestRetentionEvictedOverHTTP bounds finished-task retention through the
// API: once newer tasks displace an old record, its ID answers 404 with the
// task_evicted error code.
func TestRetentionEvictedOverHTTP(t *testing.T) {
	_, ts := testServerWith(t, func(opts *core.Options) {
		opts.Workers = 1
		opts.RetainFinished = 1
	})
	for _, id := range []string{"T-old", "T-new"} {
		if code := postJSON(t, ts.URL+"/api/v1/tasks", forkSubmission(id), nil); code != http.StatusAccepted {
			t.Fatalf("submit %s status %d", id, code)
		}
	}
	// Single worker, admission order: T-new finishing means T-old finished
	// earlier and was evicted by the K=1 retention bound.
	if view := pollStatus(t, ts.URL+"/api/v1/tasks/T-new", settled); view.Status != "succeeded" {
		t.Fatalf("T-new = %+v", view)
	}
	var body errorBody
	if code := getJSON(t, ts.URL+"/api/v1/tasks/T-old", &body); code != http.StatusNotFound {
		t.Fatalf("evicted task status %d, want 404", code)
	}
	if body.Error.Code != "task_evicted" {
		t.Errorf("evicted task code = %q, want task_evicted", body.Error.Code)
	}
}

// TestMetricsAndTrace runs a workflow through the API and then checks that
// the telemetry surface reports it: nonzero enactment/matchmaking/http
// counters and an ordered span log.
func TestMetricsAndTrace(t *testing.T) {
	_, ts := testServer(t)
	sub := TaskSubmission{
		ID:   "T-obs",
		Name: "observed",
		// The FORK makes a concurrent batch: its members still matchmake one
		// by one, and nothing asks the scheduling service for a placement.
		PDL: `BEGIN,
  POD(D1, D7 -> D8);
  {FORK
    {P3DR(D2, D7, D8 -> D9)}
    {P3DR(D3, D7, D8 -> D10)}
  JOIN},
END`,
		Goal: []string{`G.Classification = "3D Model"`},
	}
	for _, d := range virolab.InitialData() {
		sub.InitialData = append(sub.InitialData, DataItemJSON{Name: d.Name, Classification: d.Classification()})
	}
	if code := postJSON(t, ts.URL+"/api/v1/tasks", sub, nil); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var view TaskView
		getJSON(t, ts.URL+"/api/v1/tasks/T-obs", &view)
		if view.Status == "succeeded" {
			break
		}
		if view.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("task did not complete: %+v", view)
		}
		time.Sleep(20 * time.Millisecond)
	}

	var snap telemetry.Snapshot
	if code := getJSON(t, ts.URL+"/api/v1/metrics", &snap); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	for _, name := range []string{
		"coordination.activities.fired",
		"coordination.activities.executed",
		"coordination.tasks.completed",
		"matchmaking.requests",
		"http.requests.total",
		"http.responses.2xx",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	if h := snap.Histograms["http.request.seconds"]; h.Count <= 0 {
		t.Errorf("http latency histogram = %+v", h)
	}
	for name := range snap.Counters {
		if strings.HasPrefix(name, "scheduling.") {
			t.Errorf("counter %s exists: enactment places activities by matchmaking alone", name)
		}
	}
	// The stage histograms are those of the three duration spans of an
	// enactment: there is no scheduling stage to time.
	stages := []string{"trace.stage.queue_wait.seconds", "trace.stage.enact.seconds", "trace.stage.journal_commit.seconds"}
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "trace.stage.") && !slices.Contains(stages, name) {
			t.Errorf("stage histogram %s is registered, want only %v", name, stages)
		}
	}

	var trace traceView
	if code := getJSON(t, ts.URL+"/api/v1/tasks/T-obs/trace", &trace); code != 200 {
		t.Fatalf("trace status %d", code)
	}
	if trace.TaskID != "T-obs" || len(trace.Spans) == 0 {
		t.Fatalf("trace = %+v", trace)
	}
	lastSeq := uint64(0)
	kinds := map[string]int{}
	for _, s := range trace.Spans {
		if s.Seq <= lastSeq {
			t.Fatalf("spans out of order: %d after %d", s.Seq, lastSeq)
		}
		lastSeq = s.Seq
		kinds[s.Kind]++
	}
	for _, k := range []string{"fire", "invoke", "dispatch", "complete"} {
		if kinds[k] == 0 {
			t.Errorf("trace missing %q spans; kinds = %v", k, kinds)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		name string
		body any
		want int
	}{
		{"no id", TaskSubmission{Goal: []string{"true"}}, http.StatusBadRequest},
		{"no goal", TaskSubmission{ID: "x"}, http.StatusBadRequest},
		{"bad pdl", TaskSubmission{ID: "x", Goal: []string{"true"}, PDL: "NOT PDL"}, http.StatusBadRequest},
		{"bad json", "}{", http.StatusBadRequest},
	}
	for _, c := range cases {
		var code int
		if s, ok := c.body.(string); ok {
			resp, err := http.Post(ts.URL+"/api/v1/tasks", "application/json", strings.NewReader(s))
			if err != nil {
				t.Fatal(err)
			}
			code = resp.StatusCode
			resp.Body.Close()
		} else {
			code = postJSON(t, ts.URL+"/api/v1/tasks", c.body, nil)
		}
		if code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
	}
	if code := getJSON(t, ts.URL+"/api/v1/tasks/ghost", nil); code != http.StatusNotFound {
		t.Errorf("ghost task status %d", code)
	}
}

func TestArchiveEndpoint(t *testing.T) {
	s, ts := testServer(t)
	// Plan through the environment, then fetch the archived plan over HTTP.
	if _, _, err := s.env.Plan("http-plan", virolab.Problem()); err != nil {
		t.Fatal(err)
	}
	var names []string
	if code := getJSON(t, ts.URL+"/api/v1/archive", &names); code != 200 || len(names) != 1 {
		t.Fatalf("archive status %d names %v", code, names)
	}
	var plan map[string]any
	if code := getJSON(t, ts.URL+"/api/v1/archive/http-plan", &plan); code != 200 {
		t.Fatalf("archived plan status %d", code)
	}
	if !strings.Contains(plan["pdl"].(string), "BEGIN") {
		t.Errorf("archived plan body = %v", plan)
	}
	if code := getJSON(t, ts.URL+"/api/v1/archive/ghost", nil); code != http.StatusNotFound {
		t.Errorf("ghost archived plan status %d", code)
	}
}

func TestOntologyEndpoint(t *testing.T) {
	_, ts := testServer(t)
	var kb map[string]any
	if code := getJSON(t, ts.URL+"/api/v1/ontology/grid", &kb); code != 200 {
		t.Fatalf("ontology status %d", code)
	}
	classes, ok := kb["classes"].([]any)
	if !ok || len(classes) != 10 {
		t.Errorf("ontology classes = %d", len(classes))
	}
	if code := getJSON(t, ts.URL+"/api/v1/ontology/ghost", nil); code == 200 {
		t.Error("ghost ontology served")
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := testServer(t)
	req := services.SimulateRequest{
		Tasks: []services.TaskSpec{
			{ID: "a", Service: "P3DR", BaseTime: 1800, DataMB: 100},
			{ID: "b", Service: "P3DR", BaseTime: 1800, DataMB: 100},
		},
		InterArrival: 5, Retries: 1, Seed: 1,
	}
	var reply services.SimulateReply
	if code := postJSON(t, ts.URL+"/api/v1/simulate", req, &reply); code != 200 {
		t.Fatalf("simulate status %d", code)
	}
	if reply.Completed+reply.Failed != 2 || reply.Makespan <= 0 {
		t.Errorf("reply = %+v", reply)
	}
	resp, err := http.Post(ts.URL+"/api/v1/simulate", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad simulate body status %d", resp.StatusCode)
	}
}
