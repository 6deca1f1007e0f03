package engine

import (
	"encoding/json"
	"fmt"

	"repro/internal/coordination"
	"repro/internal/expr"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// Journal event names. Every lifecycle transition of a task appends one
// record to the task's journal key before (write-ahead) or immediately after
// the transition takes effect, so a crashed engine can reconstruct where
// every task stood from the persistent storage service alone.
const (
	EventAccepted = "accepted" // admitted to the queue; carries the full task envelope
	EventStarted  = "started"  // a worker began attempt N
	EventSnapshot = "snapshot" // the terminal record (status + error): it replaces the
	//                            history, so a finished task's journal is exactly one record
)

// JournalKey returns the storage key of a task's journal. Each journal
// record is one version of this key, so the storage service's versioning is
// the append-only log.
func JournalKey(taskID string) string { return "journal/" + taskID }

// JournalPrefix is the storage key prefix shared by all task journals.
const JournalPrefix = "journal/"

// JournalRecord is one append-only lifecycle record.
type JournalRecord struct {
	Event  string `json:"event"`
	TaskID string `json:"taskId"`
	// Seq is the admission sequence number (on accepted/snapshot records);
	// recovery re-enqueues tasks in this order.
	Seq int64 `json:"seq,omitempty"`
	// Attempt is the 1-based execution attempt (on started records and on
	// terminal records).
	Attempt  int    `json:"attempt,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Error    string `json:"error,omitempty"`
	// Task is the serialized submission (on accepted records, and on the
	// non-terminal snapshots older versions wrote); recovery re-creates the
	// workflow task from it.
	Task *TaskEnvelope `json:"task,omitempty"`
	// Status is the effective task status (on snapshot records only).
	Status string `json:"status,omitempty"`
	// Reason refines a terminal status (budget_exceeded, deadline_missed);
	// empty on ordinary outcomes, so pre-existing journals replay unchanged.
	Reason string `json:"reason,omitempty"`
}

// TaskEnvelope is the durable, self-contained form of a submission: enough
// to rebuild the workflow.Task (and its resolved policy) after a crash.
type TaskEnvelope struct {
	ID           string               `json:"id"`
	Name         string               `json:"name,omitempty"`
	NeedPlanning bool                 `json:"needPlanning,omitempty"`
	Process      json.RawMessage      `json:"process,omitempty"`
	Items        []EnvelopeItem       `json:"items,omitempty"`
	Goal         []string             `json:"goal,omitempty"`
	ResultSet    []string             `json:"resultSet,omitempty"`
	Constraints  map[string]string    `json:"constraints,omitempty"`
	Deadline     float64              `json:"deadline,omitempty"`
	Budget       float64              `json:"budget,omitempty"`
	HardDeadline bool                 `json:"hardDeadline,omitempty"`
	Policy       *coordination.Policy `json:"policy,omitempty"`
}

// EnvelopeItem is one serialized initial data item.
type EnvelopeItem struct {
	Name  string                `json:"name"`
	Props map[string]expr.Value `json:"props"`
}

// envelope serializes a submission for the journal.
func envelope(task *workflow.Task, pol *coordination.Policy) (*TaskEnvelope, error) {
	env := &TaskEnvelope{
		ID:           task.ID,
		Name:         task.Name,
		NeedPlanning: task.NeedPlanning,
		Policy:       pol,
	}
	if task.Process != nil {
		raw, err := task.Process.MarshalJSON()
		if err != nil {
			return nil, fmt.Errorf("engine: marshal process of task %s: %w", task.ID, err)
		}
		env.Process = raw
	}
	if c := task.Case; c != nil {
		env.Goal = append([]string(nil), c.Goal.Conditions...)
		env.ResultSet = append([]string(nil), c.ResultSet...)
		env.Deadline = c.Deadline
		env.Budget = c.Budget
		env.HardDeadline = c.HardDeadline
		if len(c.Constraints) > 0 {
			env.Constraints = make(map[string]string, len(c.Constraints))
			for k, v := range c.Constraints {
				env.Constraints[k] = v
			}
		}
		for _, item := range c.InitialData {
			env.Items = append(env.Items, EnvelopeItem{Name: item.Name, Props: item.Props})
		}
	}
	return env, nil
}

// task rebuilds the workflow task from its durable envelope.
func (te *TaskEnvelope) task() (*workflow.Task, error) {
	c := workflow.NewCase(te.ID, te.Name)
	c.Goal = workflow.NewGoal(te.Goal...)
	c.ResultSet = append([]string(nil), te.ResultSet...)
	c.Deadline = te.Deadline
	c.Budget = te.Budget
	c.HardDeadline = te.HardDeadline
	for k, v := range te.Constraints {
		c.SetConstraint(k, v)
	}
	for _, it := range te.Items {
		c.AddData(&workflow.DataItem{Name: it.Name, Props: it.Props})
	}
	task := &workflow.Task{ID: te.ID, Name: te.Name, Case: c, NeedPlanning: te.NeedPlanning}
	if len(te.Process) > 0 {
		pd, err := workflow.DecodeProcess(te.Process)
		if err != nil {
			return nil, fmt.Errorf("engine: journaled process of task %s corrupt: %w", te.ID, err)
		}
		task.Process = pd
	}
	return task, nil
}

// journalWrite is the one marshal / error / counter path behind the three
// journal writes; write is the store method (as a method expression, so
// picking it allocates nothing) and what names it in the error.
func (e *Engine) journalWrite(write func(storageAPI, string, []byte) (int, error), what string, n *telemetry.Counter, rec JournalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		// Records are built from plain serializable fields; a marshal
		// failure is a programming error, not a runtime condition.
		panic(fmt.Sprintf("engine: journal record marshal: %v", err))
	}
	if _, err := write(e.store, JournalKey(rec.TaskID), data); err != nil {
		return fmt.Errorf("engine: journal %s for task %s: %w", what, rec.TaskID, err)
	}
	n.Inc()
	return nil
}

// journalAppend appends one record to the task's journal; on durable
// backends it blocks until the fsync that carries the record is done. The
// caller must NOT hold e.mu: the append can wait on an fsync, and concurrent
// appends are exactly what group commit batches together. Per-task journal
// keys have a single writer at any time (admission before the task is
// queued, then its worker), so appends to one key never race.
func (e *Engine) journalAppend(rec JournalRecord) error {
	return e.journalWrite(storageAPI.Put, "append", e.mJournalRecords, rec)
}

// journalAppendAsync appends one record without waiting for an fsync or
// starting one; the record's position in the log is still fixed here, and it
// is durable no later than the task's terminal snapshot. For records whose
// loss a crash already tolerates (the "started" marker).
func (e *Engine) journalAppendAsync(rec JournalRecord) error {
	return e.journalWrite(storageAPI.PutAsync, "append", e.mJournalRecords, rec)
}

// compact replaces a task's journal history with the single snapshot record
// of its terminal state. The whole compaction is one Replace — one store
// record, one group-commit slot — so a crash can never land between
// discarding the history and writing the snapshot, which a Delete+Put pair
// (separate fsync rounds) could not guarantee.
func (e *Engine) compact(snapshot JournalRecord) error {
	snapshot.Event = EventSnapshot
	return e.journalWrite(storageAPI.Replace, "compact", e.mJournalCompactions, snapshot)
}

// ReadJournal returns every journal record of a task in append order,
// reading directly from a storage backend. Used by recovery, tests, and
// operational tooling.
func ReadJournal(store storageAPI, taskID string) ([]JournalRecord, error) {
	_, latest, found, err := store.Get(JournalKey(taskID), 0)
	if err != nil {
		return nil, fmt.Errorf("engine: journal of task %s: %w", taskID, err)
	}
	if !found {
		return nil, nil
	}
	out := make([]JournalRecord, 0, latest)
	for v := 1; v <= latest; v++ {
		raw, _, ok, err := store.Get(JournalKey(taskID), v)
		if err != nil {
			return nil, fmt.Errorf("engine: journal of task %s version %d: %w", taskID, v, err)
		}
		if !ok {
			return nil, fmt.Errorf("engine: journal of task %s missing version %d", taskID, v)
		}
		var rec JournalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("engine: journal of task %s version %d corrupt: %w", taskID, v, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
