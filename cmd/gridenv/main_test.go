package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ontology"
	"repro/internal/virolab"
)

// TestParseFlags pins which core.Options field each flag fills.
func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field func(core.Options) any
		want  any
	}{
		{[]string{"-workers", "3"}, func(o core.Options) any { return o.Workers }, 3},
		{[]string{"-plan-cache", "64"}, func(o core.Options) any { return o.PlanCacheSize }, 64},
		{[]string{"-trace-spans", "99"}, func(o core.Options) any { return o.TraceSpanCap }, 99},
		{[]string{"-seed", "5"}, func(o core.Options) any { return [2]int64{o.GridConfig.Seed, o.Planner.Seed} }, [2]int64{5, 5}},
		{
			[]string{"-tenants", "alpha:3,beta:1", "-tenant-max-queued", "7"},
			func(o core.Options) any { return o.Tenants },
			map[string]engine.TenantConfig{"alpha": {Weight: 3, MaxQueued: 7}, "beta": {Weight: 1, MaxQueued: 7}},
		},
		{
			[]string{"-tenant-max-queued", "7"},
			func(o core.Options) any { return o.TenantDefaults },
			engine.TenantConfig{MaxQueued: 7},
		},
	} {
		cfg, err := parseFlags(tc.args)
		if err != nil {
			t.Errorf("parseFlags(%v): %v", tc.args, err)
			continue
		}
		if got := tc.field(cfg.opts); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseFlags(%v) set %#v, want %#v", tc.args, got, tc.want)
		}
	}
}

func TestParseFlagsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-tenants", "nope"},
		{"-log-level", "loud"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) succeeded, want error", args)
		}
	}
}

// TestRunRejectsBarePathStore: -store is a DSN or nothing.
func TestRunRejectsBarePathStore(t *testing.T) {
	cfg, err := parseFlags([]string{"-store", "state.json"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "no scheme") {
		t.Fatalf("run with -store state.json = %v, want the store's no-scheme error", err)
	}
}

// serve boots the command on a free loopback port and waits for /healthz.
// It returns the address and a stop function that cancels the context (what
// SIGTERM does) and returns run's result. The port is found by listening and
// closing, so another process could take it before run binds; that window is
// accepted rather than giving run a listener parameter only the test would
// use.
func serve(t *testing.T) (addr string, stop func() error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr = ln.Addr().String()
	ln.Close()

	cfg, err := parseFlags([]string{"-addr", addr, "-log-level", "error"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
			}
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return addr, func() error {
		cancel()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("run did not return after cancel")
			return nil
		}
	}
}

// TestRunServesUntilCancelled checks that cancelling the context makes run
// return cleanly.
func TestRunServesUntilCancelled(t *testing.T) {
	_, stop := serve(t)
	if err := stop(); err != nil {
		t.Fatalf("run after cancel = %v, want nil", err)
	}
}

// TestOntologyServesRunningCatalog: the ontology agent of a running server
// answers with the Figure 13 knowledge base the catalog was read from.
func TestOntologyServesRunningCatalog(t *testing.T) {
	addr, stop := serve(t)
	defer stop()
	resp, err := http.Get("http://" + addr + "/api/v1/ontology/3dsd")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/ontology/3dsd = %d %v: %s", resp.StatusCode, err, body)
	}
	kb, err := ontology.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	if _, n := kb.Stats(); n != 47 {
		t.Errorf("instances = %d, want 47", n)
	}
	p3dr := kb.Instance("svc-P3DR")
	if p3dr == nil {
		t.Fatal("no svc-P3DR instance")
	}
	if v, _ := p3dr.Get("BaseTime"); v.N != 1800 || v.N != virolab.Catalog().Get("P3DR").BaseTime {
		t.Errorf("P3DR BaseTime = %v, want 1800 as in the catalog", v)
	}
}
