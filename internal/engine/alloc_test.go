package engine

import (
	"testing"

	"repro/internal/virolab"
)

// Stated allocation budget of the journal's read side, on the Fig-10
// accepted record recover_file replays (3 021 bytes: a 1 783-byte process,
// 7 items, 23 values): decoding it, and rebuilding the workflow task from its
// envelope, which decodes and validates the process. The counts are
// machine-independent and read 79 and 192; the ceilings leave under 4 %
// headroom. Before the journal had a reader of its own, json.Unmarshal took
// 235 allocations for the record and 205 for the process alone.
const (
	recordDecodeAllocs = 82
	envelopeTaskAllocs = 199
)

func TestJournalReadAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds a varying number of allocations of its own")
	}
	data, err := appendRecord(nil, &JournalRecord{Event: EventAccepted, TaskID: "T1", Seq: 1, Priority: 1, Tenant: "default", task: virolab.Task()})
	if err != nil {
		t.Fatal(err)
	}
	var rec JournalRecord
	decode := testing.AllocsPerRun(100, func() {
		rec = JournalRecord{}
		if err := rec.decode(data); err != nil {
			t.Fatal(err)
		}
	})
	task := testing.AllocsPerRun(100, func() {
		if _, err := rec.Task.task(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Fig-10 accepted record (%d B): decode %.0f allocs, envelope to task %.0f", len(data), decode, task)
	if decode > recordDecodeAllocs {
		t.Errorf("decoding the record allocates %.0f, budget %d", decode, recordDecodeAllocs)
	}
	if task > envelopeTaskAllocs {
		t.Errorf("rebuilding the task allocates %.0f, budget %d", task, envelopeTaskAllocs)
	}
}
