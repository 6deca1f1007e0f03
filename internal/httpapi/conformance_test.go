package httpapi

// The async-resource conformance sweep: /api/v1/plans and /api/v1/tasks
// promise one convention — POST answers 201/202 with a Location header,
// GET polls a status drawn from the shared lifecycle enum, DELETE cancels,
// and post-terminal DELETE conflicts with a resource-specific 409 code.
// This test drives both resources through the same checklist so the two
// surfaces cannot drift apart silently.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/planner"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// lifecycleStatuses is the shared async-resource status enum.
var lifecycleStatuses = map[string]bool{
	"queued": true, "running": true, "succeeded": true, "failed": true, "cancelled": true,
}

func terminalStatus(s string) bool {
	return s == "succeeded" || s == "failed" || s == "cancelled"
}

// doRequest issues a method/path/body and returns the response with its
// decoded JSON body (as a generic map; nil out skips decoding).
func doRequest(t *testing.T, method, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

// pollTerminal polls GET url until the status field is terminal, checking
// every observed status stays inside the shared lifecycle enum.
func pollTerminal(t *testing.T, url string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := doRequest(t, http.MethodGet, url, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d (%v)", url, resp.StatusCode, body)
		}
		status, _ := body["status"].(string)
		if !lifecycleStatuses[status] {
			t.Fatalf("GET %s: status %q outside the shared lifecycle enum", url, status)
		}
		if terminalStatus(status) {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: still %q after deadline", url, status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func virolabItems() []DataItemJSON {
	var items []DataItemJSON
	for _, d := range virolab.InitialData() {
		items = append(items, DataItemJSON{Name: d.Name, Classification: d.Classification()})
	}
	return items
}

func TestAsyncResourceConformance(t *testing.T) {
	_, ts := testServer(t)

	type resource struct {
		name         string
		collection   string
		submit       any
		wantPostCode []int  // acceptable creation codes
		notFoundCode string // GET {collection}/ghost error code
		conflictCode string // DELETE after terminal error code
	}
	resources := []resource{
		{
			name:       "plans",
			collection: "/api/v1/plans",
			submit: PlanSubmission{
				ID:          "conf-plan",
				InitialData: virolabItems(),
				Goal:        []string{virolab.GoalCondition},
			},
			wantPostCode: []int{http.StatusAccepted, http.StatusCreated},
			notFoundCode: "plan_not_found",
			conflictCode: "plan_finished",
		},
		{
			name:       "tasks",
			collection: "/api/v1/tasks",
			submit: TaskSubmission{
				ID:          "conf-task",
				Name:        "conformance",
				InitialData: virolabItems(),
				Goal:        []string{virolab.GoalCondition},
			},
			wantPostCode: []int{http.StatusAccepted},
			notFoundCode: "not_found",
			conflictCode: "task_finished",
		},
	}

	for _, rc := range resources {
		t.Run(rc.name, func(t *testing.T) {
			// POST creates asynchronously: 202 (or 201 when the result already
			// exists) with a Location header naming the new resource.
			resp, body := doRequest(t, http.MethodPost, ts.URL+rc.collection, rc.submit)
			okCode := false
			for _, c := range rc.wantPostCode {
				okCode = okCode || resp.StatusCode == c
			}
			if !okCode {
				t.Fatalf("POST %s = %d (%v), want one of %v", rc.collection, resp.StatusCode, body, rc.wantPostCode)
			}
			loc := resp.Header.Get("Location")
			id, _ := body["id"].(string)
			if loc == "" || !strings.HasPrefix(loc, rc.collection+"/") || id == "" || loc != rc.collection+"/"+id {
				t.Fatalf("POST %s: Location %q / id %q do not agree", rc.collection, loc, id)
			}
			if status, _ := body["status"].(string); !lifecycleStatuses[status] {
				t.Fatalf("POST %s: status %q outside the shared lifecycle enum", rc.collection, status)
			}

			// GET polls through the shared lifecycle to a terminal status.
			final := pollTerminal(t, ts.URL+loc)
			if status, _ := final["status"].(string); status != "succeeded" {
				t.Fatalf("%s %s finished %q (%v), want succeeded", rc.name, id, status, final)
			}

			// DELETE after terminal conflicts with the resource's 409 code.
			resp, errBody := doRequest(t, http.MethodDelete, ts.URL+loc, nil)
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("DELETE %s after terminal = %d, want 409", loc, resp.StatusCode)
			}
			if code := errCode(errBody); code != rc.conflictCode {
				t.Errorf("DELETE %s: code %q, want %q", loc, code, rc.conflictCode)
			}

			// GET of an unknown resource answers 404 with the advertised code.
			resp, errBody = doRequest(t, http.MethodGet, ts.URL+rc.collection+"/ghost", nil)
			if resp.StatusCode != http.StatusNotFound || errCode(errBody) != rc.notFoundCode {
				t.Errorf("GET %s/ghost = %d code %q, want 404 %q",
					rc.collection, resp.StatusCode, errCode(errBody), rc.notFoundCode)
			}
		})
	}

	// Constraint validation rides the same conventions: malformed budget/
	// deadline constraints answer 400 with the bad_constraints envelope (the
	// client's X-Request-Id threaded through header and body), and accepted
	// constraints are echoed in the task view from admission to terminal.
	t.Run("task-constraints", func(t *testing.T) {
		badSubs := []TaskSubmission{
			{ID: "conf-neg-budget", InitialData: virolabItems(),
				Goal: []string{virolab.GoalCondition}, Budget: -5},
			{ID: "conf-neg-deadline", InitialData: virolabItems(),
				Goal: []string{virolab.GoalCondition}, Deadline: -1},
			{ID: "conf-hard-no-deadline", InitialData: virolabItems(),
				Goal: []string{virolab.GoalCondition}, HardDeadline: true},
		}
		for _, sub := range badSubs {
			data, err := json.Marshal(sub)
			if err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/tasks", bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			const rid = "conf-constraints-rid"
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Request-Id", rid)
			raw, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var body map[string]any
			_ = json.NewDecoder(raw.Body).Decode(&body)
			raw.Body.Close()
			if raw.StatusCode != http.StatusBadRequest || errCode(body) != "bad_constraints" {
				t.Fatalf("POST %s = %d code %q, want 400 bad_constraints (%v)",
					sub.ID, raw.StatusCode, errCode(body), body)
			}
			env, _ := body["error"].(map[string]any)
			if msg, _ := env["message"].(string); msg == "" {
				t.Errorf("POST %s: bad_constraints envelope has no message", sub.ID)
			}
			if got := raw.Header.Get("X-Request-Id"); got != rid {
				t.Errorf("POST %s: X-Request-Id header %q, want %q", sub.ID, got, rid)
			}
			if got, _ := body["requestId"].(string); got != rid {
				t.Errorf("POST %s: envelope requestId %q, want %q", sub.ID, got, rid)
			}
		}

		// A well-constrained task is accepted, echoes its constraints while
		// queued/running, and reports spend + deadline slack once terminal.
		sub := TaskSubmission{
			ID: "conf-constrained", Name: "conformance constrained",
			InitialData: virolabItems(), Goal: []string{virolab.GoalCondition},
			Budget: 10000, Deadline: 50000, HardDeadline: true,
		}
		resp, body := doRequest(t, http.MethodPost, ts.URL+"/api/v1/tasks", sub)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("constrained POST = %d (%v), want 202", resp.StatusCode, body)
		}
		_, view := doRequest(t, http.MethodGet, ts.URL+"/api/v1/tasks/conf-constrained", nil)
		if got, _ := view["budget"].(float64); got != sub.Budget {
			t.Errorf("task view budget = %v, want %v", view["budget"], sub.Budget)
		}
		if got, _ := view["deadlineSec"].(float64); got != sub.Deadline {
			t.Errorf("task view deadlineSec = %v, want %v", view["deadlineSec"], sub.Deadline)
		}
		if hard, _ := view["hardDeadline"].(bool); !hard {
			t.Errorf("task view hardDeadline = %v, want true", view["hardDeadline"])
		}
		final := pollTerminal(t, ts.URL+"/api/v1/tasks/conf-constrained")
		if status, _ := final["status"].(string); status != "succeeded" {
			t.Fatalf("constrained task finished %q (%v), want succeeded", status, final)
		}
		if got, _ := final["budget"].(float64); got != sub.Budget {
			t.Errorf("terminal view budget = %v, want %v", final["budget"], sub.Budget)
		}
		spent, ok := final["spent"].(float64)
		if !ok || spent <= 0 {
			t.Errorf("terminal view spent = %v, want > 0", final["spent"])
		}
		if cost, _ := final["totalCost"].(float64); cost != spent {
			t.Errorf("spent %v disagrees with totalCost %v", spent, final["totalCost"])
		}
		slack, ok := final["deadlineSlackSec"].(float64)
		if !ok {
			t.Errorf("terminal view has no deadlineSlackSec: %v", final)
		} else if slack <= 0 {
			t.Errorf("deadlineSlackSec = %v, want > 0 for a met deadline", slack)
		}
		if reason, present := final["reason"]; present {
			t.Errorf("succeeded task carries terminal reason %v", reason)
		}
	})
}

// virolabItemsFull serializes the virolab initial data with every property,
// so explicit-PDL submissions (which skip planning) run to completion.
func virolabItemsFull() []DataItemJSON {
	var items []DataItemJSON
	for _, d := range virolab.InitialData() {
		it := DataItemJSON{Name: d.Name, Classification: d.Classification()}
		for k, v := range d.Props {
			if k == workflow.PropClassification {
				continue
			}
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
		items = append(items, it)
	}
	return items
}

// podSubmission is a fast explicit-PDL task (no planning involved).
func podSubmission(id string) TaskSubmission {
	return TaskSubmission{
		ID:          id,
		Name:        "pod " + id,
		PDL:         `BEGIN, POD(D1, D7 -> D8), END`,
		InitialData: virolabItemsFull(),
		Goal:        []string{`G.Classification = "Density Map"`},
	}
}

// errCode digs the code out of the shared error envelope.
func errCode(body map[string]any) string {
	e, _ := body["error"].(map[string]any)
	code, _ := e["code"].(string)
	return code
}

// TestPlanResourceLifecycle exercises the plan-specific parts of the
// convention: validation errors, the synchronous cache hit (201 Created),
// and cancellation of in-flight plans.
func TestPlanResourceLifecycle(t *testing.T) {
	s, ts := testServer(t)

	// Missing goal is a 400 plan_invalid.
	resp, body := doRequest(t, http.MethodPost, ts.URL+"/api/v1/plans", PlanSubmission{InitialData: virolabItems()})
	if resp.StatusCode != http.StatusBadRequest || errCode(body) != "plan_invalid" {
		t.Fatalf("goalless POST = %d code %q, want 400 plan_invalid", resp.StatusCode, errCode(body))
	}

	// A cold plan computes asynchronously.
	sub := PlanSubmission{InitialData: virolabItems(), Goal: []string{virolab.GoalCondition}}
	resp, body = doRequest(t, http.MethodPost, ts.URL+"/api/v1/plans", sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cold POST = %d (%v), want 202", resp.StatusCode, body)
	}
	first := pollTerminal(t, ts.URL+resp.Header.Get("Location"))
	if status, _ := first["status"].(string); status != "succeeded" {
		t.Fatalf("cold plan finished %q: %v", status, first)
	}
	pdl, _ := first["pdl"].(string)
	if pdl == "" {
		t.Fatal("succeeded plan carries no PDL")
	}

	// The identical case answers synchronously from the plan cache: 201
	// Created, cacheHit set, same plan bytes.
	resp, body = doRequest(t, http.MethodPost, ts.URL+"/api/v1/plans", sub)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("warm POST = %d (%v), want 201", resp.StatusCode, body)
	}
	if hit, _ := body["cacheHit"].(bool); !hit {
		t.Errorf("warm POST not marked cacheHit: %v", body)
	}
	if got, _ := body["pdl"].(string); got != pdl {
		t.Errorf("warm plan differs from cold plan:\n%s\nvs\n%s", got, pdl)
	}

	// Duplicate IDs conflict.
	resp, body = doRequest(t, http.MethodPost, ts.URL+"/api/v1/plans",
		PlanSubmission{ID: "dup", InitialData: virolabItems(), Goal: []string{virolab.GoalCondition}, NoCache: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dup POST = %d, want 202", resp.StatusCode)
	}
	resp, body = doRequest(t, http.MethodPost, ts.URL+"/api/v1/plans",
		PlanSubmission{ID: "dup", InitialData: virolabItems(), Goal: []string{virolab.GoalCondition}, NoCache: true})
	if resp.StatusCode != http.StatusConflict || errCode(body) != "duplicate_plan" {
		t.Fatalf("duplicate POST = %d code %q, want 409 duplicate_plan", resp.StatusCode, errCode(body))
	}

	// Cancel a fresh plan: 200 when it was still queued, 202 while a running
	// one unwinds; either way it settles as cancelled and a second DELETE
	// answers 409 plan_cancelled. The plan is submitted to the service
	// directly, with a budget no DELETE can miss: at the server's own budget
	// a plan takes milliseconds and can finish before the DELETE arrives.
	long := planner.DefaultParams()
	long.Generations = 5000
	if _, err := s.env.Planner.Submit(context.Background(), planner.PlanSpec{ID: "doomed",
		Initial: virolab.Problem().Initial.Items(), Goal: []string{virolab.GoalCondition}, Params: &long, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	resp, body = doRequest(t, http.MethodDelete, ts.URL+"/api/v1/plans/doomed", nil)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE doomed = %d (%v), want 200 or 202", resp.StatusCode, body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st := doRequest(t, http.MethodGet, ts.URL+"/api/v1/plans/doomed", nil)
		if status, _ := st["status"].(string); status == "cancelled" {
			break
		} else if terminalStatus(status) {
			t.Fatalf("doomed plan settled %q, want cancelled", status)
		}
		if time.Now().After(deadline) {
			t.Fatal("doomed plan never settled cancelled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, body = doRequest(t, http.MethodDelete, ts.URL+"/api/v1/plans/doomed", nil)
	if resp.StatusCode != http.StatusConflict || errCode(body) != "plan_cancelled" {
		t.Fatalf("second DELETE = %d code %q, want 409 plan_cancelled", resp.StatusCode, errCode(body))
	}

	// The plan listing pages the handles in submission order.
	var listing struct {
		Items []PlanView `json:"items"`
		Total int        `json:"total"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/plans", &listing); code != 200 {
		t.Fatalf("plan list status %d", code)
	}
	if listing.Total < 3 || len(listing.Items) != listing.Total {
		t.Fatalf("plan list = %+v", listing)
	}

	// The stats rollup carries the planner block.
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	pl, ok := stats["planner"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing planner block: %v", stats)
	}
	if hits, _ := pl["cacheHits"].(float64); hits < 1 {
		t.Errorf("planner stats cacheHits = %v, want >= 1 (%v)", pl["cacheHits"], pl)
	}
}
