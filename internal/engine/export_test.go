package engine

import "context"

// RunContext returns the context a task's enactment runs under, nil once the
// record has let it go.
func RunContext(e *Engine, id string) context.Context {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rec := e.records[id]; rec != nil {
		return rec.runCtx
	}
	return nil
}

// Holds names the enactment state a task's record still holds: task, env,
// resume, trace, endQueue.
func Holds(e *Engine, id string) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec := e.records[id]
	if rec == nil {
		return nil
	}
	var held []string
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"task", rec.task != nil},
		{"env", rec.env != nil},
		{"resume", rec.resume != nil},
		{"trace", rec.trace != nil},
		{"endQueue", rec.endQueue != nil},
	} {
		if f.set {
			held = append(held, f.name)
		}
	}
	return held
}
