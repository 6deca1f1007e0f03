package httpapi

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/services"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// forkPDL is a short two-stage workflow the fault-API tests submit; its goal
// is reachable without the iterative refinement loop.
const forkPDL = `BEGIN,
  POD(D1, D7 -> D8);
  {FORK
    {P3DR(D2, D7, D8 -> D9)}
    {P3DR(D3, D7, D8 -> D10)}
  JOIN},
END`

func forkSubmission(id string) TaskSubmission {
	sub := TaskSubmission{
		ID:   id,
		Name: "fault-api " + id,
		PDL:  forkPDL,
		Goal: []string{`G.Classification = "3D Model"`},
	}
	for _, d := range virolab.InitialData() {
		sub.InitialData = append(sub.InitialData, DataItemJSON{Name: d.Name, Classification: d.Classification()})
	}
	return sub
}

// settled reports a terminal task status (a task now passes through "queued"
// before "running", so polls wait for an actual outcome).
func settled(s string) bool {
	return s == "succeeded" || s == "failed" || s == "cancelled"
}

func pollStatus(t *testing.T, url string, done func(string) bool) TaskView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var view TaskView
		if code := getJSON(t, url, &view); code != 200 {
			t.Fatalf("poll status %d", code)
		}
		if done(view.Status) {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("task stuck in %q", view.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSubmitPolicyValidation checks the 400 envelopes for malformed policy
// and fault specs.
func TestSubmitPolicyValidation(t *testing.T) {
	_, ts := testServer(t)
	neg := -1
	negMS := -5.0
	tooHot := 1.5
	cases := []struct {
		name     string
		mod      func(*TaskSubmission)
		wantCode string
	}{
		{"negative retries", func(s *TaskSubmission) {
			s.Policy = &PolicyJSON{MaxRetries: &neg}
		}, "bad_policy"},
		{"negative timeout", func(s *TaskSubmission) {
			s.Policy = &PolicyJSON{ActivityTimeoutMS: &negMS}
		}, "bad_policy"},
		{"negative backoff", func(s *TaskSubmission) {
			s.Policy = &PolicyJSON{BackoffBaseMS: &negMS}
		}, "bad_policy"},
		{"failure rate above 1", func(s *TaskSubmission) {
			s.Faults = &grid.FaultSpec{FailureRate: tooHot}
		}, "bad_faults"},
		{"unknown fault node", func(s *TaskSubmission) {
			s.Faults = &grid.FaultSpec{Nodes: []string{"ghost"}, FailureRate: 0.5}
		}, "bad_faults"},
	}
	for _, c := range cases {
		sub := forkSubmission("T-bad-" + c.name)
		c.mod(&sub)
		data, err := json.Marshal(sub)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/api/v1/tasks", "application/json", strings.NewReader(string(data)))
		if err != nil {
			t.Fatal(err)
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: not the JSON envelope: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if body.Error.Code != c.wantCode || body.Error.Message == "" || body.RequestID == "" {
			t.Errorf("%s: envelope = %+v, want code %q", c.name, body, c.wantCode)
		}
	}
}

// TestSubmitPolicyEcho submits with an explicit policy and checks the
// resolved echo — wire units are milliseconds, defaults filled in — both in
// the 202 body and in the task view afterwards.
func TestSubmitPolicyEcho(t *testing.T) {
	_, ts := testServer(t)
	five := 5
	base := 2000.0
	seed := int64(7)
	sub := forkSubmission("T-pol")
	sub.Policy = &PolicyJSON{MaxRetries: &five, BackoffBaseMS: &base, Seed: &seed}

	var accepted struct {
		ID     string     `json:"id"`
		Status string     `json:"status"`
		Policy policyView `json:"policy"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/tasks", sub, &accepted); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if accepted.Policy.MaxRetries != 5 || accepted.Policy.BackoffBaseMS != 2000 || accepted.Policy.Seed != 7 {
		t.Errorf("echoed policy = %+v", accepted.Policy)
	}
	// The default cap (300 simulated seconds) is resolved and echoed in ms.
	if accepted.Policy.BackoffCapMS != 300000 {
		t.Errorf("backoffCapMS = %g, want 300000", accepted.Policy.BackoffCapMS)
	}

	view := pollStatus(t, ts.URL+"/api/v1/tasks/T-pol", settled)
	if view.Status != "succeeded" {
		t.Fatalf("task = %+v", view)
	}
	if view.Policy == nil || *view.Policy != accepted.Policy {
		t.Errorf("task view policy = %+v, want %+v", view.Policy, accepted.Policy)
	}
	if view.Retries != 0 || view.Faults != 0 {
		t.Errorf("healthy run reported retries=%d faults=%d", view.Retries, view.Faults)
	}
}

// TestSubmitWithFaultsReportsRetries injects full failure on one synthetic
// node through the submission body; the run completes on other providers and
// the task view carries the retry counters.
func TestSubmitWithFaultsReportsRetries(t *testing.T) {
	s, ts := testServer(t)
	victim := s.env.Grid.Nodes()[0].ID
	base := 100.0
	sub := forkSubmission("T-faulty")
	sub.Faults = &grid.FaultSpec{Seed: 9, Nodes: []string{victim}, FailureRate: 1}
	sub.Policy = &PolicyJSON{BackoffBaseMS: &base}
	if code := postJSON(t, ts.URL+"/api/v1/tasks", sub, nil); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	view := pollStatus(t, ts.URL+"/api/v1/tasks/T-faulty", settled)
	if view.Status != "succeeded" {
		t.Fatalf("task = %+v", view)
	}
	// The spec is installed: every execution on the victim now faults.
	for _, c := range s.env.Grid.Containers() {
		if c.NodeID != victim {
			continue
		}
		if ex, err := s.env.Grid.Execute(c.ID, c.Services[0], 1, 0); err == nil || !ex.Fault {
			t.Errorf("execution on %s after the task: err=%v fault=%v, want an injected fault", c.ID, err, ex.Fault)
		}
	}
	// The doomed node may or may not be picked by matchmaking; when it is,
	// the counters must surface in the view.
	if view.Failures > 0 && view.Retries == 0 {
		t.Errorf("failures=%d but no retries in view: %+v", view.Failures, view)
	}
}

// TestTaskCancelEndpoint drives DELETE /api/v1/tasks/{id} through its full
// lifecycle: 404 for ghosts, 202 while running, "cancelled" once the
// enactment unwinds, then 409 on a second attempt.
func TestTaskCancelEndpoint(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	_, ts := testServerWith(t, func(opts *core.Options) {
		opts.PostProcess = func(act *workflow.Activity, produced []*workflow.DataItem, visit int) {
			once.Do(func() {
				close(started)
				<-release
			})
		}
	})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/tasks/ghost", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE ghost = %d, want 404", resp.StatusCode)
	}

	if code := postJSON(t, ts.URL+"/api/v1/tasks", forkSubmission("T-cxl"), nil); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("task never reached the first activity")
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/tasks/T-cxl", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ack map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ack["status"] != "cancelling" {
		t.Fatalf("DELETE running task = %d %v", resp.StatusCode, ack)
	}
	close(release)

	view := pollStatus(t, ts.URL+"/api/v1/tasks/T-cxl", settled)
	if view.Status != "cancelled" {
		t.Fatalf("post-cancel view = %+v", view)
	}

	// Cancelling a finished task conflicts.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/tasks/T-cxl", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || body.Error.Code != "task_finished" {
		t.Fatalf("DELETE finished task = %d %+v", resp.StatusCode, body)
	}
}

// TestMonitorEndpoints reads the cluster summary and a single node's health
// record over HTTP.
func TestMonitorEndpoints(t *testing.T) {
	s, ts := testServer(t)
	var cluster services.ClusterHealthReply
	if code := getJSON(t, ts.URL+"/api/v1/monitor", &cluster); code != 200 {
		t.Fatalf("monitor status %d", code)
	}
	nodes := s.env.Grid.Nodes()
	if len(cluster.Nodes) != len(nodes) || cluster.Up != len(nodes) {
		t.Fatalf("cluster = %+v, want all %d nodes up", cluster, len(nodes))
	}

	var health services.NodeHealth
	id := nodes[0].ID
	if code := getJSON(t, ts.URL+"/api/v1/nodes/"+id+"/health", &health); code != 200 {
		t.Fatalf("node health status %d", code)
	}
	if health.Node != id || !health.Known || !health.Up || health.Status != services.HealthHealthy {
		t.Fatalf("health = %+v", health)
	}

	var body errorBody
	if code := getJSON(t, ts.URL+"/api/v1/nodes/ghost/health", &body); code != http.StatusNotFound {
		t.Fatalf("ghost health status %d", code)
	}
	if body.Error.Code != "not_found" {
		t.Fatalf("ghost health envelope = %+v", body)
	}
}
