package coordination

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/expr"
	"repro/internal/services"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// CheckpointData is the serialized enactment snapshot written to the
// persistent storage service after every completed end-user activity ("some
// of the computational tasks are long lasting and require checkpointing").
// It is complete: the token state, the case data state, the accounting, and
// the process description itself (in its lossless JSON form), so a
// coordinator — even a fresh one after a crash — can resume exactly where
// the enactment stopped via ResumeTask.
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
		TaskID:   task.ID,
		TaskName: task.Name,
		Executed: report.Executed,
		Failures: report.Failures,
		Replans:  report.Replans,
		Fired:    report.Fired,
		Tokens: enactState{
			Ready:   append([]string(nil), es.Ready...),
			Arrived: copyCounts(es.Arrived),
			Visits:  copyCounts(es.Visits),
		},
		Process:      pdJSON,
		Goal:         goal.Conditions,
		Deadline:     task.Case.Deadline,
		Budget:       task.Case.Budget,
		HardDeadline: task.Case.HardDeadline,
		Time:         report.SimulatedTime,
		Wall:         report.WallClockTime,
		Cost:         report.TotalCost,
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
		services.PutRequest{Key: CheckpointKey(task.ID), Value: data}, c.cfg.CallTimeout)
	if err != nil {
		report.trace("checkpoint", "", "store failed: "+err.Error())
		return
	}
	c.mCheckpoints.Inc()
	c.hCkptBytes.Observe(float64(len(data)))
	if pr, ok := reply.Content.(services.PutReply); ok {
		report.trace("checkpoint", "", fmt.Sprintf("version %d", pr.Version))
		if c.cfg.OnCheckpoint != nil {
			c.cfg.OnCheckpoint(task.ID, pr.Version)
		}
	}
}

func copyCounts(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// LoadCheckpoint fetches and decodes the latest checkpoint of a task
// directly from a storage service instance.
func LoadCheckpoint(store *services.Storage, taskID string) (*CheckpointData, error) {
	return LoadCheckpointVersion(store, taskID, 0)
}

// LoadCheckpointVersion fetches a specific checkpoint version (0 = latest).
func LoadCheckpointVersion(store *services.Storage, taskID string, version int) (*CheckpointData, error) {
	raw, _, found, err := store.Get(CheckpointKey(taskID), version)
	if err != nil {
		return nil, fmt.Errorf("coordination: reading checkpoint of task %q: %w", taskID, err)
	}
	if !found {
		return nil, fmt.Errorf("coordination: no checkpoint for task %q", taskID)
	}
	var snap CheckpointData
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, err
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

// ResumeTaskContext continues an enactment from its latest checkpoint in the
// storage service: the process description, data state, token positions,
// and accounting are restored, and the token game picks up at the next
// pending activity. Re-planning still works during the resumed run. A nil
// ctx behaves like context.Background(); a nil pol means defaults.
func (c *Coordinator) ResumeTaskContext(ctx context.Context, taskID string, pol *Policy) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	reply, err := c.ctx.CallContext(ctx, services.StorageName, services.OntStorage,
		services.GetRequest{Key: CheckpointKey(taskID)}, c.cfg.CallTimeout)
	if err != nil {
		return nil, err
	}
	gr, ok := reply.Content.(services.GetReply)
	if !ok || !gr.Found {
		return nil, fmt.Errorf("coordination: no checkpoint for task %q", taskID)
	}
	var snap CheckpointData
	if err := json.Unmarshal(gr.Value, &snap); err != nil {
		return nil, err
	}
	return c.ResumeContext(ctx, &snap, pol)
}

// ResumeContext continues an enactment from an explicit checkpoint snapshot.
func (c *Coordinator) ResumeContext(ctx context.Context, snap *CheckpointData, pol *Policy) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pd, err := workflow.DecodeProcess(snap.Process)
	if err != nil {
		return nil, fmt.Errorf("coordination: checkpointed process corrupt: %w", err)
	}
	state := snap.RestoreState()
	goal := workflow.NewGoal(snap.Goal...)
	p := c.ResolvePolicy(pol)
	if p.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.Deadline)
		defer cancel()
	}
	report := &Report{
		TaskID:        snap.TaskID,
		Executed:      snap.Executed,
		Failures:      snap.Failures,
		Replans:       snap.Replans,
		Fired:         snap.Fired,
		SimulatedTime: snap.Time,
		WallClockTime: snap.Wall,
		TotalCost:     snap.Cost,
		Policy:        p,
		spans:         c.cfg.Telemetry.TaskTrace(snap.TaskID),
		span:          telemetry.SpanFromContext(ctx),
	}
	report.trace("resume", "", fmt.Sprintf("from checkpoint after %d executions", snap.Executed))
	es := &enactState{
		Ready:   append([]string(nil), snap.Tokens.Ready...),
		Arrived: copyCounts(snap.Tokens.Arrived),
		Visits:  copyCounts(snap.Tokens.Visits),
	}
	task := &workflow.Task{
		ID:      snap.TaskID,
		Name:    snap.TaskName,
		Process: pd,
		Case: &workflow.CaseDescription{
			ID: snap.TaskID, Name: snap.TaskName, Goal: goal, Deadline: snap.Deadline,
			Budget: snap.Budget, HardDeadline: snap.HardDeadline,
		},
	}
	// The ledger seeds from the restored report, so checkpointed spend and
	// wall clock are not charged a second time after a crash.
	cc := newCaseConstraints(task.Case, report)
	if err := c.enactWithReplanning(ctx, p, report, task, pd, state, goal, es, cc); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			report.Cancelled = true
			report.trace("cancel", "", err.Error())
		}
		return report, err
	}
	report.GoalFitness = goal.Fitness(state)
	report.Completed = report.GoalFitness >= 1
	report.FinalState = state
	return report, nil
}
