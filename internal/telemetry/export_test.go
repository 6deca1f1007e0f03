package telemetry

// SetTraceCapacity overrides the trace retention limits of a registry nobody
// has used yet: spanCap spans kept per task and maxTraces distinct task
// traces before the oldest is evicted. Non-positive arguments keep the
// default.
func (r *Registry) SetTraceCapacity(spanCap, maxTraces int) {
	if spanCap > 0 {
		r.spanCap = spanCap
	}
	if maxTraces > 0 {
		r.maxTraces = maxTraces
	}
}
