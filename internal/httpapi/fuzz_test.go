package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/virolab"
)

// submissionSeeds are the bodies both submission fuzzers start from: the
// Figure-10 task, a one-activity task, an empty object, a truncated body
// and a JSON value that is not an object.
func submissionSeeds(f *testing.F) {
	for _, sub := range []TaskSubmission{
		{ID: "fz-virolab", PDL: virolab.PDLSource, Goal: []string{virolab.GoalCondition}, InitialData: virolabItems()},
		podSubmission("fz-pod"),
	} {
		body, err := json.Marshal(sub)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, "")
		f.Add(body, "alpha")
		f.Add(body[:len(body)/2], "beta")
	}
	f.Add([]byte(`{}`), "")
	f.Add([]byte(`[1, "two"]`), "alpha")
}

// fuzzPost posts body to the server's collection with the tenant header and
// returns the status. A transport error means the handler panicked (the
// server drops the connection), and a 5xx means it failed a request that
// was the client's fault: both fail the input.
func fuzzPost(t *testing.T, url string, body []byte, tenant string) int {
	for i := 0; i < len(tenant); i++ {
		if c := tenant[i]; c < ' ' && c != '\t' || c == 0x7f {
			t.Skip("the client cannot send this header value")
		}
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %q: %v", body, err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		t.Fatalf("POST %q (tenant %q) = %d", body, tenant, resp.StatusCode)
	}
	return resp.StatusCode
}

// FuzzTaskSubmission drives POST /api/v1/tasks with arbitrary bodies and
// tenants: no input panics the handler or draws a 5xx, and a 202 requires
// a body that decodes with an id and a goal.
func FuzzTaskSubmission(f *testing.F) {
	submissionSeeds(f)
	_, ts := testServer(f)
	f.Fuzz(func(t *testing.T, body []byte, tenant string) {
		code := fuzzPost(t, ts.URL+"/api/v1/tasks", body, tenant)
		var sub TaskSubmission
		err := json.Unmarshal(body, &sub)
		if code == http.StatusAccepted && (err != nil || sub.ID == "" || len(sub.Goal) == 0) {
			t.Fatalf("POST %q accepted without a decodable id and goal (%v)", body, err)
		}
	})
}

// FuzzPlanSubmission drives POST /api/v1/plans the same way: a 202 requires
// a body that decodes with a goal.
func FuzzPlanSubmission(f *testing.F) {
	submissionSeeds(f)
	_, ts := testServer(f)
	f.Fuzz(func(t *testing.T, body []byte, tenant string) {
		code := fuzzPost(t, ts.URL+"/api/v1/plans", body, tenant)
		var sub PlanSubmission
		err := json.Unmarshal(body, &sub)
		if code == http.StatusAccepted && (err != nil || len(sub.Goal) == 0) {
			t.Fatalf("POST %q accepted without a decodable goal (%v)", body, err)
		}
	})
}
