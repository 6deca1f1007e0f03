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
	restored := make([]*record, 0, len(keys))
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
		if rec := replay(id, recs); rec != nil {
			restored = append(restored, rec)
		}
	}
	// Journal keys come back in map order; admission order is the Seq
	// stamped on accepted/snapshot records.
	sort.Slice(restored, func(i, j int) bool { return restored[i].seq < restored[j].seq })

	for _, rec := range restored {
		if terminal(rec.status) {
			// Finished before the crash: restore the record so GETs still
			// answer — within the retention window, as after a finish — but
			// nothing re-runs, and a finished record keeps only its view.
			rec.env = nil
			e.mu.Lock()
			e.records[rec.id] = rec
			if rec.seq > e.seq {
				e.seq = rec.seq
			}
			e.retire(rec.id)
			e.mu.Unlock()
			report.Terminal++
			continue
		}
		if rec.env == nil {
			// A journal with no envelope cannot be re-run; surface it
			// instead of silently dropping the task.
			return report, fmt.Errorf("engine: recover: journal of task %s has no envelope", rec.id)
		}
		// Whether a started task resumes is the store's word, not the
		// journal's: a checkpoint that is there is used.
		switch _, _, checkpointed, err := e.store.Get(coordination.CheckpointKey(rec.id), 0); {
		case err != nil:
			return report, fmt.Errorf("engine: recover task %s: %w", rec.id, err)
		case rec.status == StatusQueued:
			e.enqueueRecovered(rec)
			e.mRequeued.Inc()
			report.Requeued = append(report.Requeued, rec.id)
			e.tel.TaskTrace(rec.id).Span("recovered", "", "re-enqueued: accepted but never started")
			e.log.Info("recovery re-enqueued task", slog.String("task", rec.id))
		case checkpointed:
			snap, err := coordination.LoadCheckpointVersion(e.store, rec.id, 0)
			if err != nil {
				return report, fmt.Errorf("engine: recover task %s: %w", rec.id, err)
			}
			rec.resume = snap
			e.enqueueRecovered(rec)
			e.mResumed.Inc()
			report.Resumed = append(report.Resumed, rec.id)
			e.tel.TaskTrace(rec.id).Span("recovered", "",
				fmt.Sprintf("resuming from checkpoint after %d executions", snap.Executed))
			e.log.Info("recovery resumed task from checkpoint",
				slog.String("task", rec.id), slog.Int("executed", snap.Executed))
		default:
			e.enqueueRecovered(rec)
			e.mRestarted.Inc()
			report.Restarted = append(report.Restarted, rec.id)
			e.tel.TaskTrace(rec.id).Span("recovered", "", "restarting: started but no checkpoint written")
			e.log.Info("recovery restarted task", slog.String("task", rec.id))
		}
	}
	return report, nil
}

// replay folds a task's journal records into the record it recovers to; nil
// when the journal is empty. A surviving envelope supplies the policy and
// the case's constraints; a terminal snapshot, which has none, carries the
// constraints itself.
func replay(id string, recs []JournalRecord) *record {
	if len(recs) == 0 {
		return nil
	}
	rec := &record{id: id}
	for _, r := range recs {
		switch r.Event {
		case EventAccepted:
			rec.status = StatusQueued
			rec.seq = r.Seq
			rec.priority = Priority(r.Priority)
			rec.tenant = r.Tenant
			rec.env = r.Task
		case EventStarted:
			rec.status = StatusRunning
			rec.attempt = r.Attempt
		case EventSnapshot:
			rec.status = r.Status
			rec.seq = r.Seq
			rec.attempt = r.Attempt
			rec.priority = Priority(r.Priority)
			rec.tenant = r.Tenant
			rec.err = r.Error
			rec.reason = r.Reason
			rec.env = r.Task
			rec.budget, rec.deadline, rec.hardDeadline = r.Budget, r.Deadline, r.HardDeadline
		}
	}
	if env := rec.env; env != nil {
		rec.pol = env.Policy
		rec.budget, rec.deadline, rec.hardDeadline = env.Budget, env.Deadline, env.HardDeadline
	}
	return rec
}
