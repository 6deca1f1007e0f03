package engine

import (
	"fmt"
	"log/slog"
	"sort"

	"repro/internal/coordination"
)

// RecoveryReport summarizes one journal replay.
type RecoveryReport struct {
	// Requeued lists tasks that were accepted but never started; they
	// re-entered the queue from their journaled envelope.
	Requeued []string `json:"requeued,omitempty"`
	// Resumed lists tasks that were mid-enactment with a coordination
	// checkpoint; they continue from the latest checkpoint.
	Resumed []string `json:"resumed,omitempty"`
	// Restarted lists tasks that were mid-enactment with no checkpoint yet;
	// they run again from the beginning.
	Restarted []string `json:"restarted,omitempty"`
	// Terminal counts journals whose task had already finished; their
	// records are restored for lookups but nothing re-runs.
	Terminal int `json:"terminal"`
}

// Total returns how many tasks re-entered the queue.
func (r RecoveryReport) Total() int {
	return len(r.Requeued) + len(r.Resumed) + len(r.Restarted)
}

// replayState is the effective state of one task after folding its journal.
type replayState struct {
	id       string
	seq      int64
	attempt  int
	priority Priority
	tenant   string
	status   string
	err      string
	reason   string
	envelope *TaskEnvelope
}

// Recover replays every task journal in the storage service and rebuilds the
// engine's state: terminal tasks get their records restored for lookups,
// accepted-but-never-started tasks are re-enqueued in admission order, and
// started tasks re-enter the queue flagged to resume from their latest
// coordination checkpoint (or from scratch if the store holds none). Call it
// after core loads a store file and before traffic arrives; tasks the engine
// already tracks or has evicted are skipped, so calling it on a warm engine
// is harmless.
func (e *Engine) Recover() (RecoveryReport, error) {
	var report RecoveryReport
	keys := e.store.Keys(JournalPrefix)
	states := make([]*replayState, 0, len(keys))
	for _, key := range keys {
		id := key[len(JournalPrefix):]
		e.mu.Lock()
		known := e.records[id] != nil || e.evicted[id]
		e.mu.Unlock()
		if known || id == "" {
			continue
		}
		recs, err := ReadJournal(e.store, id)
		if err != nil {
			return report, fmt.Errorf("engine: recover: %w", err)
		}
		st := replay(id, recs)
		if st == nil {
			continue
		}
		states = append(states, st)
	}
	// Journal keys come back in map order; admission order is the Seq
	// stamped on accepted/snapshot records.
	sort.Slice(states, func(i, j int) bool { return states[i].seq < states[j].seq })

	for _, st := range states {
		rec := &record{
			id:       st.id,
			seq:      st.seq,
			priority: st.priority,
			tenant:   st.tenant,
			attempt:  st.attempt,
			status:   st.status,
			err:      st.err,
			reason:   st.reason,
		}
		if env := st.envelope; env != nil {
			rec.pol = env.Policy
			rec.budget, rec.deadline, rec.hardDeadline = env.Budget, env.Deadline, env.HardDeadline
		}
		if terminal(st.status) {
			// Finished before the crash: restore the record so GETs still
			// answer — within the retention window, as after a finish — but
			// nothing re-runs.
			e.mu.Lock()
			e.records[st.id] = rec
			if st.seq > e.seq {
				e.seq = st.seq
			}
			e.retire(st.id)
			e.mu.Unlock()
			report.Terminal++
			continue
		}
		if st.envelope == nil {
			// A journal with no envelope cannot be re-run; surface it
			// instead of silently dropping the task.
			return report, fmt.Errorf("engine: recover: journal of task %s has no envelope", st.id)
		}
		rec.env = st.envelope
		// Whether a started task resumes is the store's word, not the
		// journal's: a checkpoint that is there is used.
		switch _, _, checkpointed, err := e.store.Get(coordination.CheckpointKey(st.id), 0); {
		case err != nil:
			return report, fmt.Errorf("engine: recover task %s: %w", st.id, err)
		case st.status == StatusQueued:
			e.enqueueRecovered(rec)
			e.mRequeued.Inc()
			report.Requeued = append(report.Requeued, st.id)
			e.tel.TaskTrace(st.id).Span("recovered", "", "re-enqueued: accepted but never started")
			e.log.Info("recovery re-enqueued task", slog.String("task", st.id))
		case checkpointed:
			snap, err := coordination.LoadCheckpointVersion(e.store, st.id, 0)
			if err != nil {
				return report, fmt.Errorf("engine: recover task %s: %w", st.id, err)
			}
			rec.resume = snap
			e.enqueueRecovered(rec)
			e.mResumed.Inc()
			report.Resumed = append(report.Resumed, st.id)
			e.tel.TaskTrace(st.id).Span("recovered", "",
				fmt.Sprintf("resuming from checkpoint after %d executions", snap.Executed))
			e.log.Info("recovery resumed task from checkpoint",
				slog.String("task", st.id), slog.Int("executed", snap.Executed))
		default:
			e.enqueueRecovered(rec)
			e.mRestarted.Inc()
			report.Restarted = append(report.Restarted, st.id)
			e.tel.TaskTrace(st.id).Span("recovered", "", "restarting: started but no checkpoint written")
			e.log.Info("recovery restarted task", slog.String("task", st.id))
		}
	}
	return report, nil
}

// replay folds a task's journal records into its effective state; nil when
// the journal is empty.
func replay(id string, recs []JournalRecord) *replayState {
	if len(recs) == 0 {
		return nil
	}
	st := &replayState{id: id}
	for _, r := range recs {
		switch r.Event {
		case EventAccepted:
			st.status = StatusQueued
			st.seq = r.Seq
			st.priority = Priority(r.Priority)
			st.tenant = r.Tenant
			st.envelope = r.Task
		case EventStarted:
			st.status = StatusRunning
			st.attempt = r.Attempt
		case EventSnapshot:
			st.status = r.Status
			st.seq = r.Seq
			st.attempt = r.Attempt
			st.priority = Priority(r.Priority)
			st.tenant = r.Tenant
			st.err = r.Error
			st.reason = r.Reason
			st.envelope = r.Task
		}
	}
	return st
}
