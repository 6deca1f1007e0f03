package coordination

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"

	"repro/internal/expr"
	"repro/internal/services"
	"repro/internal/workflow"
)

// CheckpointData is the serialized enactment snapshot written to the
// persistent storage service after every completed end-user activity ("some
// of the computational tasks are long lasting and require checkpointing").
// It is complete: the token state, the case data state, the accounting, and
// the process description itself (in its lossless JSON form), so a
// coordinator — even a fresh one after a crash — can resume exactly where
// the enactment stopped via ResumeContext.
type CheckpointData struct {
	TaskID   string           `json:"taskId"`
	TaskName string           `json:"taskName,omitempty"`
	Executed int              `json:"executed"`
	Failures int              `json:"failures"`
	Replans  int              `json:"replans"`
	Fired    int              `json:"fired"`
	Items    []CheckpointItem `json:"items"`
	Tokens   enactState       `json:"tokens"`
	Process  json.RawMessage  `json:"process"`
	Goal     []string         `json:"goal,omitempty"`
	Deadline float64          `json:"deadline,omitempty"`
	// Budget and HardDeadline carry the case's scheduling constraints so a
	// resumed enactment keeps enforcing them; Cost below already holds the
	// accumulated spend, so resume never re-charges pre-crash executions.
	Budget       float64 `json:"budget,omitempty"`
	HardDeadline bool    `json:"hardDeadline,omitempty"`
	Time         float64 `json:"simulatedTime"`
	Wall         float64 `json:"wallClockTime"`
	Cost         float64 `json:"totalCost"`
	// The rest of the fault accounting beside Failures; omitempty, so a
	// checkpoint written before these existed replays them as 0.
	Retries     int     `json:"retries,omitempty"`
	Faults      int     `json:"faults,omitempty"`
	BackoffWait float64 `json:"backoffWait,omitempty"`
}

// CheckpointItem is one serialized data item.
type CheckpointItem struct {
	Name  string                `json:"name"`
	Props map[string]expr.Value `json:"props"`
}

// CheckpointKey returns the storage key for a task's checkpoints.
func CheckpointKey(taskID string) string { return "checkpoint/" + taskID }

// checkpoint writes the enactment snapshot; failures are recorded in the
// trace but do not abort the enactment (checkpointing is best effort).
func (c *Coordinator) checkpoint(ctx context.Context, report *Report, task *workflow.Task, pd *workflow.ProcessDescription, state *workflow.State, goal workflow.Goal, es *enactState) {
	pdJSON, err := pd.MarshalJSON()
	if err != nil {
		report.trace("checkpoint", "", "process marshal failed: "+err.Error())
		return
	}
	snap := CheckpointData{
		TaskID:       task.ID,
		TaskName:     task.Name,
		Executed:     report.Executed,
		Failures:     report.Failures,
		Replans:      report.Replans,
		Fired:        report.Fired,
		Tokens:       *es.clone(),
		Process:      pdJSON,
		Goal:         goal.Conditions,
		Deadline:     task.Case.Deadline,
		Budget:       task.Case.Budget,
		HardDeadline: task.Case.HardDeadline,
		Time:         report.SimulatedTime,
		Wall:         report.WallClockTime,
		Cost:         report.TotalCost,
		Retries:      report.Retries,
		Faults:       report.Faults,
		BackoffWait:  report.BackoffWait,
	}
	for _, item := range state.Items() {
		snap.Items = append(snap.Items, CheckpointItem{Name: item.Name, Props: item.Props})
	}
	data, err := json.Marshal(snap)
	if err != nil {
		report.trace("checkpoint", "", "marshal failed: "+err.Error())
		return
	}
	reply, err := c.ctx.CallContext(ctx, services.StorageName, services.OntStorage,
		services.PutRequest{Key: CheckpointKey(task.ID), Value: data}, services.CallTimeout)
	if err != nil {
		report.trace("checkpoint", "", "store failed: "+err.Error())
		return
	}
	c.mCheckpoints.Inc()
	c.hCkptBytes.Observe(float64(len(data)))
	if pr, ok := reply.Content.(services.PutReply); ok {
		report.trace("checkpoint", "", fmt.Sprintf("version %d", pr.Version))
		if c.cfg.onCheckpoint != nil {
			c.cfg.onCheckpoint(task.ID, pr.Version)
		}
	}
}

// clone deep-copies the token state, so a checkpoint and the live enactment
// (or a snapshot and the run resumed from it) never share a map.
func (es *enactState) clone() *enactState {
	return &enactState{
		Ready:   append([]string(nil), es.Ready...),
		Arrived: copyCounts(es.Arrived),
		Visits:  copyCounts(es.Visits),
	}
}

// copyCounts never returns nil: the token game increments into the copy.
func copyCounts(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	maps.Copy(out, m)
	return out
}

// LoadCheckpointVersion fetches and decodes a checkpoint of a task (version
// 0 = latest) from anything that reads the store: the storage service, a
// backend, or the engine's journal handle.
func LoadCheckpointVersion(store interface {
	Get(key string, version int) (value []byte, ver int, found bool, err error)
}, taskID string, version int) (*CheckpointData, error) {
	raw, _, found, err := store.Get(CheckpointKey(taskID), version)
	if err != nil {
		return nil, fmt.Errorf("coordination: reading checkpoint of task %q: %w", taskID, err)
	}
	if !found {
		return nil, fmt.Errorf("coordination: no checkpoint for task %q", taskID)
	}
	var snap CheckpointData
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("coordination: checkpoint of task %q corrupt: %w", taskID, err)
	}
	return &snap, nil
}

// RestoreState rebuilds the data state recorded in a checkpoint.
func (cd *CheckpointData) RestoreState() *workflow.State {
	st := workflow.NewState()
	for _, it := range cd.Items {
		item := &workflow.DataItem{Name: it.Name, Props: it.Props}
		st.Put(item)
	}
	return st
}

// ResumeContext continues an enactment from a checkpoint snapshot: the
// process description, data state, token positions, and accounting are
// restored, and the token game picks up at the next pending activity.
// Re-planning still works during the resumed run. A nil ctx behaves like
// context.Background(); a nil pol means defaults.
func (c *Coordinator) ResumeContext(ctx context.Context, snap *CheckpointData, pol *Policy) (*Report, error) {
	pd, err := workflow.DecodeProcess(snap.Process)
	if err != nil {
		return nil, fmt.Errorf("coordination: checkpointed process corrupt: %w", err)
	}
	task := &workflow.Task{
		ID:      snap.TaskID,
		Name:    snap.TaskName,
		Process: pd,
		Case: &workflow.CaseDescription{
			ID: snap.TaskID, Name: snap.TaskName, Goal: workflow.NewGoal(snap.Goal...), Deadline: snap.Deadline,
			Budget: snap.Budget, HardDeadline: snap.HardDeadline,
		},
	}
	return c.run(ctx, task, pol, snap)
}
