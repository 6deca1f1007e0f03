package load_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/httpapi"
	"repro/internal/load"
	"repro/internal/virolab"
)

// soakBody is soakTask in its POST /api/v1/tasks wire form.
func soakBody(tenant string, n int) (string, []byte, error) {
	id := tenant + "-" + itoa(n)
	body, err := json.Marshal(httpapi.TaskSubmission{
		ID:   id,
		Name: "soak " + id,
		PDL:  soakPDL,
		InitialData: []httpapi.DataItemJSON{
			{Name: "D1", Classification: "POD-Parameter"},
			{Name: "D7", Classification: "2D Image"},
		},
		Goal:   []string{`G.Classification = "Density Map"`},
		Tenant: tenant,
	})
	return id, body, err
}

// TestRunLiveTargets drives the same small closed-loop and open-loop specs
// through both targets: the one driver loop must account every task the
// same way whether it reaches the engine in process or over HTTP.
func TestRunLiveTargets(t *testing.T) {
	tenants := []load.TenantSpec{{ID: "alpha", Weight: 3}, {ID: "beta", Weight: 1}}
	specs := map[string]load.Spec{
		"closed": {Seed: 1, Mode: "closed", Tenants: tenants, Arrivals: 24, Outstanding: 4},
		"open":   {Seed: 1, Mode: "open", Tenants: tenants, Arrivals: 24, RatePerSec: 400},
	}
	targets := map[string]func(*testing.T, *core.Environment) load.Target{
		"engine": func(_ *testing.T, env *core.Environment) load.Target {
			return load.EngineTarget(env.Engine, soakTask)
		},
		"http": func(t *testing.T, env *core.Environment) load.Target {
			srv := httpapi.New(env)
			srv.Logger = nil
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			return load.HTTPTarget([]string{ts.URL}, soakBody, false)
		},
	}
	for targetName, newTarget := range targets {
		for mode, spec := range specs {
			t.Run(targetName+"/"+mode, func(t *testing.T) {
				env, err := core.NewEnvironment(core.Options{
					Catalog: virolab.Catalog(),
					Workers: 2,
					Tenants: map[string]engine.TenantConfig{"alpha": {Weight: 3}, "beta": {Weight: 1}},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer env.Close()

				report, err := load.RunLive(newTarget(t, env), spec)
				if err != nil {
					t.Fatal(err)
				}
				if report.Completed < spec.Arrivals {
					t.Errorf("completed %d, want >= %d", report.Completed, spec.Arrivals)
				}
				if report.Rejected != 0 {
					t.Errorf("unexpected rejections: %d", report.Rejected)
				}
				if mode == "open" && (report.Submitted != spec.Arrivals || report.Completed != spec.Arrivals) {
					t.Errorf("open loop submitted %d completed %d, want %d drained", report.Submitted, report.Completed, spec.Arrivals)
				}
				completed := 0
				for _, tr := range report.Tenants {
					if tr.Submitted != tr.Accepted+tr.Rejected || tr.Completed > tr.Accepted || tr.Completed == 0 {
						t.Errorf("tenant %s counts inconsistent: %+v", tr.ID, tr)
					}
					if tr.Latency.Count != tr.Completed || tr.Latency.MeanSec <= 0 {
						t.Errorf("tenant %s latency = %+v over %d completions", tr.ID, tr.Latency, tr.Completed)
					}
					completed += tr.Completed
				}
				if completed != report.Completed {
					t.Errorf("tenant completions sum to %d, report says %d", completed, report.Completed)
				}
			})
		}
	}
}

// TestHTTPTargetPollServerError: a server error on the status poll ends the
// run at once with the status code and task named, not after the run
// timeout.
func TestHTTPTargetPollServerError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			return
		}
		http.Error(w, `{"error":{"code":"internal"}}`, http.StatusInternalServerError)
	}))
	defer ts.Close()

	start := time.Now()
	_, err := load.RunLive(load.HTTPTarget([]string{ts.URL}, soakBody, false), load.Spec{
		Mode:        "closed",
		Tenants:     []load.TenantSpec{{ID: "alpha", Weight: 1}},
		Arrivals:    1,
		Outstanding: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "alpha-1") {
		t.Fatalf("err = %v, want the poll's status 500 and task alpha-1 named", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run took %v to give up on a 500", elapsed)
	}
}
