package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/telemetry"
)

// BodyFactory builds the n-th synthetic POST /api/v1/tasks body for a
// tenant, returning the task ID it named inside. IDs must be unique across
// the run.
type BodyFactory func(tenant string, n int) (id string, body []byte, err error)

// HTTPTarget drives one or more gridenv nodes over their HTTP API — the
// cluster-scale counterpart of EngineTarget. endpoints are the nodes' base
// URLs (no trailing slash). Submissions round-robin across them, so on a
// multi-node cluster a share lands on a non-owner and rides the forwarding
// path; the report therefore reflects whole-cluster goodput including
// forwarding overhead. Each task is polled on the endpoint that accepted
// it, and its latency runs from the 202 to the poll that saw it finished.
//
// traceparent makes every submission carry a fresh W3C traceparent header,
// so the server's task root span joins a client-originated trace (visible
// in GET /tasks/{id}/trace as the root's parentId).
func HTTPTarget(endpoints []string, newBody BodyFactory, traceparent bool) Target {
	return &httpTarget{
		endpoints:   endpoints,
		newBody:     newBody,
		traceparent: traceparent,
		client:      &http.Client{Timeout: 10 * time.Second},
		tasks:       map[string]httpTask{},
	}
}

type httpTarget struct {
	endpoints   []string
	newBody     BodyFactory
	traceparent bool
	client      *http.Client
	next        int                 // round-robin endpoint cursor
	tasks       map[string]httpTask // accepted, not yet seen finished
}

// httpTask tracks one outstanding submission.
type httpTask struct {
	endpoint string
	tenant   string
	accepted time.Time
}

func (t *httpTarget) Submit(tenant string, n int) (string, bool, error) {
	if len(t.endpoints) == 0 {
		return "", false, errors.New("no endpoints")
	}
	id, body, err := t.newBody(tenant, n)
	if err != nil {
		return "", false, err
	}
	endpoint := t.endpoints[t.next%len(t.endpoints)]
	t.next++
	req, err := http.NewRequest(http.MethodPost, endpoint+"/api/v1/tasks", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", tenant)
	if t.traceparent {
		sc := telemetry.SpanContext{TraceID: telemetry.NewTraceID(), SpanID: telemetry.NewSpanID()}
		req.Header.Set("traceparent", sc.Traceparent())
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return "", false, err
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		t.tasks[id] = httpTask{endpoint: endpoint, tenant: tenant, accepted: time.Now()}
		return id, true, nil
	case http.StatusTooManyRequests:
		return id, false, nil
	}
	return "", false, fmt.Errorf("unexpected status %d", resp.StatusCode)
}

func (t *httpTarget) Poll(id string) (done, succeeded bool, latency time.Duration, err error) {
	ht := t.tasks[id]
	req, err := http.NewRequest(http.MethodGet, ht.endpoint+"/api/v1/tasks/"+id, nil)
	if err != nil {
		return false, false, 0, err
	}
	req.Header.Set("X-Tenant", ht.tenant)
	resp, err := t.client.Do(req)
	if err != nil {
		return false, false, 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		// Retention evicted the record before we polled it; count the
		// completion but lose the latency sample.
		delete(t.tasks, id)
		return true, true, -1, nil
	default:
		return false, false, 0, fmt.Errorf("unexpected status %d", resp.StatusCode)
	}
	var view struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return false, false, 0, err
	}
	switch view.Status {
	case "succeeded":
		delete(t.tasks, id)
		return true, true, time.Since(ht.accepted), nil
	case "failed", "cancelled":
		delete(t.tasks, id)
		return true, false, 0, nil
	}
	return false, false, 0, nil
}
