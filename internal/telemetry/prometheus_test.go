package telemetry

import (
	"strings"
	"testing"
)

func TestPrometheusName(t *testing.T) {
	cases := map[string]string{
		"engine.queue.depth":       "engine_queue_depth",
		"http.responses.2xx":       "http_responses_2xx",
		"2leading":                 "_2leading",
		"weird-name/with ch":       "weird_name_with_ch",
		"ok_name:colons":           "ok_name:colons",
		"":                         "_",
		"telemetry.events.dropped": "telemetry_events_dropped",
	}
	for in, want := range cases {
		if got := PrometheusName(in); got != want {
			t.Errorf("PrometheusName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusEncoding(t *testing.T) {
	r := New()
	r.Counter("engine.admission.accepted").Add(7)
	r.Gauge("engine.queue.depth").Set(3.5)
	h := r.Histogram("engine.run.seconds", []float64{0.1, 1})
	h.Observe(0.05) // bucket le=0.1
	h.Observe(0.5)  // bucket le=1
	h.Observe(5)    // bucket le=+Inf

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# TYPE engine_admission_accepted counter\n",
		"engine_admission_accepted 7\n",
		"# TYPE engine_queue_depth gauge\n",
		"engine_queue_depth 3.5\n",
		"# TYPE engine_run_seconds histogram\n",
		// Cumulative buckets: 1, then 1+1, then all three at +Inf.
		"engine_run_seconds_bucket{le=\"0.1\"} 1\n",
		"engine_run_seconds_bucket{le=\"1\"} 2\n",
		"engine_run_seconds_bucket{le=\"+Inf\"} 3\n",
		"engine_run_seconds_sum 5.55\n",
		"engine_run_seconds_count 3\n",
		"# HELP engine_run_seconds engine.run.seconds\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}

	// Deterministic: a second encoding is byte-identical.
	var b2 strings.Builder
	if err := WritePrometheus(&b2, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("encoding is not deterministic")
	}
}

// TestWritePrometheusExemplar pins the exemplar exposition: the latest
// traced observation is appended — OpenMetrics style — to exactly the first
// bucket that covers its value, and a histogram without exemplars encodes
// byte-identically to the pre-exemplar format.
func TestWritePrometheusExemplar(t *testing.T) {
	r := New()
	h := r.Histogram("trace.stage.enact.seconds", []float64{0.1, 1})
	h.ObserveTraced(0.5, TraceID{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef})
	h.Observe(0.05)

	plain := r.Histogram("engine.run.seconds", []float64{0.1, 1})
	plain.Observe(0.5)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// 0.5 falls in the le="1" bucket: the exemplar rides that line only.
	want := "trace_stage_enact_seconds_bucket{le=\"1\"} 2 # {trace_id=\"0123456789abcdef0123456789abcdef\"} 0.5\n"
	if !strings.Contains(out, want) {
		t.Errorf("output missing exemplar line %q\n%s", want, out)
	}
	for _, clean := range []string{
		"trace_stage_enact_seconds_bucket{le=\"0.1\"} 1\n",
		"trace_stage_enact_seconds_bucket{le=\"+Inf\"} 2\n",
		"engine_run_seconds_bucket{le=\"1\"} 1\n",
	} {
		if !strings.Contains(out, clean) {
			t.Errorf("output missing clean bucket line %q\n%s", clean, out)
		}
	}
	if n := strings.Count(out, "# {trace_id="); n != 1 {
		t.Errorf("%d exemplar suffixes, want exactly 1\n%s", n, out)
	}

	// The snapshot carries the exemplar for the JSON surface too.
	snap := r.Snapshot()
	hs := snap.Histograms["trace.stage.enact.seconds"]
	if hs.Exemplar == nil || hs.Exemplar.TraceID != "0123456789abcdef0123456789abcdef" || hs.Exemplar.Value != 0.5 {
		t.Errorf("snapshot exemplar = %+v", hs.Exemplar)
	}
	if snap.Histograms["engine.run.seconds"].Exemplar != nil {
		t.Error("untraced histogram grew an exemplar")
	}
}
