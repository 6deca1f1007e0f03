package httpapi

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/coordination"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// itemString is DataItem.String as it was written before the items of a
// view shared one string: a Str call per property.
func itemString(d *workflow.DataItem) string {
	keys := make([]string, 0, len(d.Props))
	for k := range d.Props {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	s := d.Name + "{"
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += k + "=" + d.Props[k].Str()
	}
	return s + "}"
}

// TestTaskViewFinalData pins the task view's JSON, byte for byte, to the one
// built from a string per item, over string, number and bool properties, and
// holds the rendering to one string and the slice.
func TestTaskViewFinalData(t *testing.T) {
	state := workflow.NewState(virolab.InitialData()...)
	state.Put((&workflow.DataItem{Name: "D9"}).
		With(workflow.PropClassification, expr.String("3D Model")).
		With("Resolution", expr.Number(7.25)).
		With("Size", expr.Number(1e21)).
		With("Tiny", expr.Number(-3e-7)).
		With("Final", expr.Bool(true)))
	state.Put(&workflow.DataItem{Name: "D0"})
	st := engine.TaskStatus{ID: "T", Status: engine.StatusCompleted, Report: &coordination.Report{Completed: true, FinalState: state}}

	got, err := json.Marshal(viewTask(st))
	if err != nil {
		t.Fatal(err)
	}
	old := viewTask(st)
	old.FinalData = nil
	for _, item := range state.Items() {
		old.FinalData = append(old.FinalData, itemString(item))
	}
	want, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("task view\n got %s\nwant %s", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { state.ItemStrings() }); n > 2 {
		t.Errorf("rendering %d items took %v allocations, want 2: the string and the slice", len(state.Names()), n)
	}
}
