package engine

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/coordination"
	"repro/internal/expr"
	"repro/internal/telemetry"
	"repro/internal/workflow"
)

// The journal's format is the JSON of JournalRecord, held to encoding/json's
// bytes both ways without its reflection. appendRecord writes it — the same
// keys in the same order, omitempty, map keys sorted, the same escaping and
// float form, byte for byte (TestJournalEncodingMatchesEncodingJSON) — and
// (*JournalRecord).decode reads it with an expr.JSONReader into what
// json.Unmarshal would have read (TestJournalDecodeMatchesEncodingJSON, FuzzJournalDecode),
// so journals written before and after either are interchangeable. Only a
// policy, rare and flat, still goes through encoding/json both ways.

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
	// Budget, Deadline and HardDeadline are the case's (on terminal
	// snapshots, which carry no Task), so a finished task restored after a
	// restart still shows them.
	Budget       float64 `json:"budget,omitempty"`
	Deadline     float64 `json:"deadline,omitempty"`
	HardDeadline bool    `json:"hardDeadline,omitempty"`

	// task and policy are the write side of Task (which is only ever read):
	// appendRecord renders the envelope straight from the live submission.
	task   *workflow.Task
	policy *coordination.Policy
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

// appendRecord renders rec as encoding/json renders a JournalRecord, its Task
// from rec.task and rec.policy as the TaskEnvelope of that submission.
func appendRecord(b []byte, rec *JournalRecord) ([]byte, error) {
	e := &enc{b: b}
	e.str(`{"event":`, rec.Event, false)
	e.str(`,"taskId":`, rec.TaskID, false)
	e.int(`,"seq":`, rec.Seq)
	e.int(`,"attempt":`, int64(rec.Attempt))
	e.int(`,"priority":`, int64(rec.Priority))
	e.str(`,"tenant":`, rec.Tenant, true)
	e.str(`,"error":`, rec.Error, true)
	if rec.task != nil {
		e.envelope(rec.task, rec.policy)
	}
	e.str(`,"status":`, rec.Status, true)
	e.str(`,"reason":`, rec.Reason, true)
	e.float(`,"budget":`, rec.Budget)
	e.float(`,"deadline":`, rec.Deadline)
	e.flag(`,"hardDeadline":true`, rec.HardDeadline)
	return append(e.b, '}'), e.err
}

// envelope renders the Task field: the TaskEnvelope of a submission.
func (e *enc) envelope(task *workflow.Task, pol *coordination.Policy) {
	e.str(`,"task":{"id":`, task.ID, false)
	e.str(`,"name":`, task.Name, true)
	e.flag(`,"needPlanning":true`, task.NeedPlanning)
	if task.Process != nil {
		e.b = task.Process.AppendJSON(append(e.b, `,"process":`...))
	}
	if c := task.Case; c != nil {
		open := `,"items":[{"name":`
		for _, item := range c.InitialData {
			e.str(open, item.Name, false)
			e.b = append(e.b, `,"props":`...)
			e.props(item.Props)
			e.b, open = append(e.b, '}'), `,{"name":`
		}
		e.flag(`]`, len(c.InitialData) > 0)
		e.strs(`,"goal":`, c.Goal.Conditions)
		e.strs(`,"resultSet":`, c.ResultSet)
		if len(c.Constraints) > 0 {
			e.strMap(`,"constraints":`, c.Constraints)
		}
		e.float(`,"deadline":`, c.Deadline)
		e.float(`,"budget":`, c.Budget)
		e.flag(`,"hardDeadline":true`, c.HardDeadline)
	}
	if pol != nil {
		e.marshaled(`,"policy":`, pol) // rare, and flat: not worth an encoder of its own
	}
	e.b = append(e.b, '}')
}

// enc accumulates one record; its first error sticks. Fields other than the
// ones str is told to keep are omitempty: an empty value appends nothing.
type enc struct {
	b   []byte
	err error
}

func (e *enc) str(key, s string, omitempty bool) { e.b = expr.AppendJSONField(e.b, key, s, omitempty) }

func (e *enc) int(key string, n int64) {
	if n != 0 {
		e.b = strconv.AppendInt(append(e.b, key...), n, 10)
	}
}

func (e *enc) float(key string, f float64) {
	if f != 0 && e.err == nil {
		e.b, e.err = expr.AppendJSONFloat(append(e.b, key...), f)
	}
}

// flag appends text — a key with its true, a bracket — when set.
func (e *enc) flag(text string, set bool) {
	if set {
		e.b = append(e.b, text...)
	}
}

func (e *enc) strs(key string, ss []string) { e.b = expr.AppendJSONStrings(e.b, key, ss) }

// marshaled leaves v to encoding/json.
func (e *enc) marshaled(key string, v any) {
	if data, err := json.Marshal(v); err != nil {
		e.err = err
	} else {
		e.b = append(append(e.b, key...), data...)
	}
}

// props renders an item's properties, keys sorted; a nil map is null.
func (e *enc) props(m map[string]expr.Value) {
	if m == nil {
		e.b = append(e.b, "null"...)
		return
	}
	var buf [8]string // bigger maps spill to the heap
	e.object(sortedKeys(buf[:0], m), func(k string) {
		if e.err == nil {
			e.b, e.err = m[k].AppendJSON(e.b)
		}
	})
}

// strMap renders key and a map of strings, keys sorted.
func (e *enc) strMap(key string, m map[string]string) {
	var buf [8]string
	e.b = append(e.b, key...)
	e.object(sortedKeys(buf[:0], m), func(k string) { e.b = expr.AppendJSONString(e.b, m[k]) })
}

// object renders an object of the given keys, value appending each one's.
func (e *enc) object(keys []string, value func(k string)) {
	sep := "{"
	for _, k := range keys {
		e.str(sep, k, false)
		e.b, sep = append(e.b, ':'), ","
		value(k)
	}
	e.flag("{", len(keys) == 0)
	e.b = append(e.b, '}')
}

// sortedKeys appends m's keys to keys, sorted.
func sortedKeys[V any](keys []string, m map[string]V) []string {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
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

// journalBufs recycles the buffers journal records are rendered into: every
// store copies a value before Put, PutAsync or Replace returns (the
// store.Store contract), so a buffer is free again once the write returns.
var journalBufs = sync.Pool{New: func() any { return new([]byte) }}

// journalWrite is the one marshal / error / counter path behind the three
// journal writes; write is the store method (as a method expression, so
// picking it allocates nothing) and what names it in the error.
func (e *Engine) journalWrite(write func(storageAPI, string, []byte) (int, error), what string, n *telemetry.Counter, rec JournalRecord) error {
	buf := journalBufs.Get().(*[]byte)
	data, err := appendRecord((*buf)[:0], &rec)
	if err != nil {
		// Records are built from plain serializable fields; a marshal
		// failure is a programming error, not a runtime condition.
		panic(fmt.Sprintf("engine: journal record marshal: %v", err))
	}
	_, err = write(e.store, JournalKey(rec.TaskID), data)
	*buf = data
	journalBufs.Put(buf)
	if err != nil {
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
// operational tooling. Each version is read once: the latest comes with the
// version count.
func ReadJournal(store storageAPI, taskID string) ([]JournalRecord, error) {
	key := JournalKey(taskID)
	latest, n, found, err := store.Get(key, 0)
	if err != nil {
		return nil, fmt.Errorf("engine: journal of task %s: %w", taskID, err)
	}
	if !found {
		return nil, nil
	}
	out := make([]JournalRecord, n)
	for v := 1; v <= n; v++ {
		raw := latest
		if v < n {
			var ok bool
			if raw, _, ok, err = store.Get(key, v); err != nil {
				return nil, fmt.Errorf("engine: journal of task %s version %d: %w", taskID, v, err)
			} else if !ok {
				return nil, fmt.Errorf("engine: journal of task %s missing version %d", taskID, v)
			}
		}
		if err := out[v-1].decode(raw); err != nil {
			return nil, fmt.Errorf("engine: journal of task %s version %d corrupt: %w", taskID, v, err)
		}
	}
	return out, nil
}

// decode reads data into rec as json.Unmarshal reads a JournalRecord. The
// envelope's Process is a sub-slice of data, which a store's Get hands over.
func (rec *JournalRecord) decode(data []byte) error {
	r := expr.NewJSONReader(data)
	r.Object(func(key []byte) {
		switch string(key) {
		case "event":
			r.String(&rec.Event)
		case "taskId":
			r.String(&rec.TaskID)
		case "seq":
			expr.ReadInt(&r, &rec.Seq)
		case "attempt":
			expr.ReadInt(&r, &rec.Attempt)
		case "priority":
			expr.ReadInt(&r, &rec.Priority)
		case "tenant":
			r.String(&rec.Tenant)
		case "error":
			r.String(&rec.Error)
		case "task":
			if r.Null() {
				rec.Task = nil
				return
			}
			if rec.Task == nil {
				rec.Task = new(TaskEnvelope)
			}
			rec.Task.decode(&r)
		case "status":
			r.String(&rec.Status)
		case "reason":
			r.String(&rec.Reason)
		case "budget":
			r.Float(&rec.Budget)
		case "deadline":
			r.Float(&rec.Deadline)
		case "hardDeadline":
			r.Bool(&rec.HardDeadline)
		default:
			r.Skip()
		}
	})
	return r.End()
}

func (te *TaskEnvelope) decode(r *expr.JSONReader) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "id":
			r.String(&te.ID)
		case "name":
			r.String(&te.Name)
		case "needPlanning":
			r.Bool(&te.NeedPlanning)
		case "process":
			te.Process = r.Raw()
		case "items":
			expr.ReadSlice(r, &te.Items, func(it *EnvelopeItem) { it.decode(r) })
		case "goal":
			expr.ReadSlice(r, &te.Goal, r.String)
		case "resultSet":
			expr.ReadSlice(r, &te.ResultSet, r.String)
		case "constraints":
			expr.ReadMap(r, &te.Constraints, func(k string) {
				var v string
				r.String(&v)
				te.Constraints[k] = v
			})
		case "deadline":
			r.Float(&te.Deadline)
		case "budget":
			r.Float(&te.Budget)
		case "hardDeadline":
			r.Bool(&te.HardDeadline)
		case "policy":
			if r.Null() {
				te.Policy = nil
				return
			}
			if te.Policy == nil {
				te.Policy = new(coordination.Policy)
			}
			if raw := r.Raw(); raw != nil {
				if err := json.Unmarshal(raw, te.Policy); err != nil {
					r.Fail(err)
				}
			}
		default:
			r.Skip()
		}
	})
}

func (it *EnvelopeItem) decode(r *expr.JSONReader) {
	r.Object(func(key []byte) {
		switch string(key) {
		case "name":
			r.String(&it.Name)
		case "props":
			expr.ReadMap(r, &it.Props, func(k string) {
				var v expr.Value
				r.Value(&v)
				it.Props[k] = v
			})
		default:
			r.Skip()
		}
	})
}
