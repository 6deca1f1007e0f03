package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/virolab"
)

// submitObserved posts a small two-stage task (with a FORK so scheduling
// fires too) and returns its ID.
func submitObserved(t *testing.T, ts string, id string) string {
	t.Helper()
	sub := TaskSubmission{
		ID:   id,
		Name: "observed",
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
	if code := postJSON(t, ts+"/api/v1/tasks", sub, nil); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	return id
}

// TestEventsSSELive opens the live event stream, then enacts a task, and
// asserts the stream delivers its queue, attempt, and complete spans as
// Server-Sent Events while the task runs.
func TestEventsSSELive(t *testing.T) {
	_, ts := testServer(t)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/v1/events?task=T-sse", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	// The handler flushes its opening comment before any event can flow, so
	// once Do returned the subscription is live and nothing below is missed.
	submitObserved(t, ts.URL, "T-sse")

	want := map[string]bool{"queue": false, "attempt": false, "complete": false}
	got := []string{}
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		kind, ok := strings.CutPrefix(line, "event: ")
		if !ok {
			continue
		}
		got = append(got, kind)
		if _, tracked := want[kind]; tracked {
			want[kind] = true
		}
		done := true
		for _, seen := range want {
			done = done && seen
		}
		if done {
			return
		}
	}
	t.Fatalf("stream ended before all span kinds arrived: want queue/attempt/complete, got %v (scan err %v, ctx err %v)",
		got, scanner.Err(), ctx.Err())
}

// TestEventsSSEKindFilter asserts the kind filter drops everything else.
func TestEventsSSEKindFilter(t *testing.T) {
	_, ts := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/api/v1/events?task=T-ssef&kind=complete", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	submitObserved(t, ts.URL, "T-ssef")
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		kind, ok := strings.CutPrefix(scanner.Text(), "event: ")
		if !ok {
			continue
		}
		if kind != "complete" {
			t.Fatalf("kind filter leaked event %q", kind)
		}
		return // first matching event proves delivery; leak check above proves filtering
	}
	t.Fatalf("no complete event arrived (scan err %v, ctx err %v)", scanner.Err(), ctx.Err())
}

var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// promSample is one parsed exposition sample line.
type promSample struct {
	name     string
	labels   map[string]string
	value    float64
	exemplar string // OpenMetrics exemplar suffix, if any
}

var promExemplarRe = regexp.MustCompile(`^\{trace_id="[0-9a-f]{32}"\} [0-9.eE+-]+$`)

// parsePromLine splits `name{k="v",...} value [# {exemplar} value]`
// (labels and exemplar optional).
func parsePromLine(t *testing.T, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	if body, ex, ok := strings.Cut(line, " # "); ok {
		if !promExemplarRe.MatchString(ex) {
			t.Fatalf("malformed exemplar %q on %q", ex, line)
		}
		line, s.exemplar = body, ex
	}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		s.name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			t.Fatalf("unbalanced braces: %q", line)
		}
		for _, pair := range strings.Split(line[i+1:j], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || !strings.HasPrefix(v, `"`) || !strings.HasSuffix(v, `"`) {
				t.Fatalf("bad label %q in %q", pair, line)
			}
			s.labels[k] = strings.Trim(v, `"`)
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		var ok bool
		s.name, rest, ok = strings.Cut(line, " ")
		if !ok {
			t.Fatalf("no value on sample line %q", line)
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("bad value on %q: %v", line, err)
	}
	s.value = v
	return s
}

// TestMetricsPrometheusFormat round-trips /api/v1/metrics?format=prometheus
// through a line-level parser: every metric has HELP and TYPE lines, names
// are legal, histogram buckets are cumulative and monotone with a +Inf
// bucket matching _count, and every instrument of the JSON snapshot appears.
func TestMetricsPrometheusFormat(t *testing.T) {
	_, ts := testServer(t)
	submitObserved(t, ts.URL, "T-prom")
	deadline := time.Now().Add(30 * time.Second)
	for {
		var view TaskView
		getJSON(t, ts.URL+"/api/v1/tasks/T-prom", &view)
		if view.Status == "succeeded" || view.Status == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("task stuck in %q", view.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	var snap telemetry.Snapshot
	getJSON(t, ts.URL+"/api/v1/metrics", &snap)

	resp, err := http.Get(ts.URL + "/api/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PrometheusContentType {
		t.Fatalf("content type %q", ct)
	}

	typeOf := map[string]string{} // metric name -> TYPE
	helped := map[string]bool{}   // metric name -> HELP seen
	samples := map[string][]promSample{}
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			helped[fields[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("bad TYPE line %q", line)
			}
			typeOf[fields[0]] = fields[1]
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line %q", line)
		default:
			s := parsePromLine(t, line)
			base := s.name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if trimmed, ok := strings.CutSuffix(s.name, suffix); ok && typeOf[trimmed] == "histogram" {
					base = trimmed
				}
			}
			samples[base] = append(samples[base], s)
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}

	for name, typ := range typeOf {
		if !promNameRe.MatchString(name) {
			t.Errorf("illegal metric name %q", name)
		}
		if !helped[name] {
			t.Errorf("metric %s has TYPE but no HELP", name)
		}
		if len(samples[name]) == 0 {
			t.Errorf("metric %s has no samples", name)
		}
		if typ != "histogram" {
			continue
		}
		// Cumulative, monotone buckets ending at +Inf == _count.
		var buckets []promSample
		var count float64
		hasCount := false
		for _, s := range samples[name] {
			switch s.name {
			case name + "_bucket":
				buckets = append(buckets, s)
			case name + "_count":
				count, hasCount = s.value, true
			}
		}
		if !hasCount || len(buckets) == 0 {
			t.Errorf("histogram %s missing _count or _bucket samples", name)
			continue
		}
		sort.Slice(buckets, func(i, j int) bool {
			return leValue(t, buckets[i].labels["le"]) < leValue(t, buckets[j].labels["le"])
		})
		prev := -1.0
		for _, b := range buckets {
			if b.value < prev {
				t.Errorf("histogram %s buckets not monotone: le=%s count %v < %v",
					name, b.labels["le"], b.value, prev)
			}
			prev = b.value
		}
		last := buckets[len(buckets)-1]
		if last.labels["le"] != "+Inf" {
			t.Errorf("histogram %s final bucket le=%q, want +Inf", name, last.labels["le"])
		}
		if last.value != count {
			t.Errorf("histogram %s +Inf bucket %v != count %v", name, last.value, count)
		}
	}

	// Every instrument of the JSON snapshot must appear, sanitized, with the
	// right TYPE.
	check := func(dotted, wantType string) {
		name := telemetry.PrometheusName(dotted)
		if typeOf[name] != wantType {
			t.Errorf("instrument %s: exposition has TYPE %q for %s, want %s",
				dotted, typeOf[name], name, wantType)
		}
	}
	for name := range snap.Counters {
		check(name, "counter")
	}
	for name := range snap.Gauges {
		check(name, "gauge")
	}
	for name := range snap.Histograms {
		check(name, "histogram")
	}
}

// leValue orders bucket bounds numerically with +Inf last.
func leValue(t *testing.T, le string) float64 {
	t.Helper()
	if le == "+Inf" {
		return float64(1 << 62)
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		t.Fatalf("bad le %q: %v", le, err)
	}
	return v
}

// TestMetricsBadFormat rejects unknown format values.
func TestMetricsBadFormat(t *testing.T) {
	_, ts := testServer(t)
	if code := getJSON(t, ts.URL+"/api/v1/metrics?format=xml", nil); code != http.StatusBadRequest {
		t.Fatalf("format=xml status %d, want 400", code)
	}
}

// TestRemovedAliasConformance walks the complete route table and asserts
// every removed unversioned /api alias — each path pattern, with its real
// method and with a wrong one — answers 410, carries the "gone" error code
// in the envelope, and names its exact /api/v1 successor in the Link header.
// The v1 mount itself must carry no Link or Deprecation headers.
func TestRemovedAliasConformance(t *testing.T) {
	s, ts := testServer(t)
	fill := strings.NewReplacer("{id}", "x", "{name}", "x")
	seen := map[string]bool{}
	for _, rt := range s.routes() {
		path := fill.Replace(rt.path)
		for _, method := range []string{rt.method, http.MethodPatch} {
			key := method + " " + path
			if seen[key] {
				continue
			}
			seen[key] = true
			req, err := http.NewRequest(method, ts.URL+"/api"+path, strings.NewReader(""))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var body errorBody
			decodeErr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusGone {
				t.Errorf("%s /api%s = %d, want 410", method, path, resp.StatusCode)
				continue
			}
			if decodeErr != nil {
				t.Errorf("%s /api%s: body is not the JSON envelope: %v", method, path, decodeErr)
				continue
			}
			if body.Error.Code != "gone" {
				t.Errorf("%s /api%s: code %q, want gone", method, path, body.Error.Code)
			}
			want := `</api/v1` + path + `>; rel="successor-version"`
			if got := resp.Header.Get("Link"); got != want {
				t.Errorf("%s /api%s: Link %q, want %q", method, path, got, want)
			}
		}
	}

	resp, err := http.Get(ts.URL + "/api/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Deprecation"); got != "" {
		t.Errorf("versioned route has Deprecation header %q", got)
	}
	if got := resp.Header.Get("Link"); got != "" {
		t.Errorf("versioned route has Link header %q", got)
	}
}

// TestStatsEndpoint exercises the grid-wide rollup.
func TestStatsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	submitObserved(t, ts.URL, "T-stats")
	deadline := time.Now().Add(30 * time.Second)
	for {
		var view TaskView
		getJSON(t, ts.URL+"/api/v1/tasks/T-stats", &view)
		if view.Status == "succeeded" {
			break
		}
		if view.Status == "failed" || time.Now().After(deadline) {
			t.Fatalf("task ended %q", view.Status)
		}
		time.Sleep(50 * time.Millisecond)
	}
	var stats StatsView
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Nodes.Total == 0 || stats.Nodes.Up == 0 {
		t.Errorf("no nodes in rollup: %+v", stats.Nodes)
	}
	if stats.Engine.Workers == 0 || stats.Engine.Accepted == 0 {
		t.Errorf("engine rollup empty: %+v", stats.Engine)
	}
	if stats.Tasks.Completed == 0 {
		t.Errorf("completed task not counted: %+v", stats.Tasks)
	}
	if stats.Tasks.SuccessRate <= 0 || stats.Tasks.SuccessRate > 1 {
		t.Errorf("success rate %v out of range", stats.Tasks.SuccessRate)
	}
	if stats.Events.Published == 0 {
		t.Errorf("event bus published counter still zero")
	}
}

// TestProbes exercises /healthz and /readyz.
func TestProbes(t *testing.T) {
	s, ts := testServer(t)
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz status %d", code)
	}
	s.env.Engine.Close()
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after engine close status %d, want 503", code)
	}
}

// TestPprofGating asserts the profiling handlers are absent by default and
// present when EnablePprof is set.
func TestPprofGating(t *testing.T) {
	_, ts := testServer(t)
	if code := getJSON(t, ts.URL+"/debug/pprof/", nil); code != http.StatusNotFound {
		t.Fatalf("pprof mounted without opt-in: status %d", code)
	}

	// EnablePprof is consulted when Handler is built, so remount.
	s2, _ := testServer(t)
	s2.EnablePprof = true
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	resp, err := http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with opt-in: status %d", resp.StatusCode)
	}
}

// TestObservabilityDocListsEveryName is "the docs cannot drift from the
// registry", both ways: after one Figure-10 task submitted over HTTP and a
// metrics scrape, every instrument the registry holds and every span kind in
// the task's trace is named in OBSERVABILITY.md, and every instrument its
// metric tables list is one the registry holds.
func TestObservabilityDocListsEveryName(t *testing.T) {
	raw, err := os.ReadFile("../../OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	quoted := func(name string) bool { return strings.Contains(doc, "`"+name+"`") }

	s, ts := testServer(t)
	sub := TaskSubmission{ID: "T-doc", PDL: virolab.PDLSource, Goal: []string{virolab.GoalCondition}, InitialData: virolabItems()}
	if code := postJSON(t, ts.URL+"/api/v1/tasks", sub, nil); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if view := pollStatus(t, ts.URL+"/api/v1/tasks/T-doc", settled); view.Status != "succeeded" {
		t.Fatalf("task = %+v", view)
	}
	// The monitor hears of each execution by message, which a busy machine
	// may deliver after the task already reads as settled; the up gauge is
	// the last instrument its handler registers.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, ok := s.env.Telemetry.Snapshot().Gauges["monitoring.nodes.up"]; ok {
			break
		}
	}
	if code := getJSON(t, ts.URL+"/api/v1/metrics", nil); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}

	// Tenant instruments are documented as a pattern plus a suffix table; a
	// sanitized tenant ID holds no dot, so the suffix starts after the first.
	const tenantPattern = "engine.tenant.<id>.<suffix>"
	if !quoted(tenantPattern) {
		t.Errorf("OBSERVABILITY.md no longer documents the %s pattern", tenantPattern)
	}
	documented := func(name string) {
		if rest, ok := strings.CutPrefix(name, "engine.tenant."); ok {
			if _, suffix, found := strings.Cut(rest, "."); !found || !quoted(suffix) {
				t.Errorf("tenant instrument %s: suffix not in OBSERVABILITY.md", name)
			}
		} else if !quoted(name) {
			t.Errorf("instrument %s is registered but not in OBSERVABILITY.md", name)
		}
	}
	snap := s.env.Telemetry.Snapshot()
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Gauges {
		names = append(names, name)
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	for _, name := range names {
		documented(name)
	}

	var trace traceView
	if code := getJSON(t, ts.URL+"/api/v1/tasks/T-doc/trace", &trace); code != http.StatusOK {
		t.Fatalf("trace status %d", code)
	}
	kinds := map[string]bool{}
	for _, sp := range trace.Spans {
		kinds[sp.Kind] = true
	}
	if len(kinds) == 0 {
		t.Fatal("trace has no spans")
	}
	for kind := range kinds {
		if !strings.Contains(doc, "| `"+kind+"` |") {
			t.Errorf("span kind %s is recorded but has no row in OBSERVABILITY.md", kind)
		}
	}

	// The reverse half: every instrument a metric table lists is one the
	// registry holds by now — a row nothing registers is a deleted instrument
	// the doc kept — unless the row, or the prose its section opens with,
	// says what more it takes ("only under …"). Tenant rows list the suffix.
	registered := func(name string) bool {
		return slices.ContainsFunc(names, func(have string) bool {
			return have == name || strings.HasPrefix(have, "engine.tenant.") && strings.HasSuffix(have, "."+name)
		})
	}
	instrumentRow := regexp.MustCompile("^\\| `([a-z0-9_.]+)` \\| (?:counter|gauge|histogram)[^|]*\\|(.*)$")
	rows, sectionExempt := 0, false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "#") {
			sectionExempt = false
		} else if !strings.HasPrefix(line, "|") {
			sectionExempt = sectionExempt || strings.Contains(line, "only under ")
		} else if row := instrumentRow.FindStringSubmatch(line); row != nil {
			rows++
			if !registered(row[1]) && !sectionExempt && !strings.Contains(row[2], "only under ") {
				t.Errorf("OBSERVABILITY.md lists %s, which the registry does not hold after a task and a scrape", row[1])
			}
		}
	}
	if rows < 86 {
		t.Errorf("found %d instrument rows in OBSERVABILITY.md (86 when this was written): the table format moved under this test", rows)
	}
	if strings.Contains(doc, "| `schedule` |") {
		t.Error("OBSERVABILITY.md still has a row for the schedule span, which nothing records")
	}
}
