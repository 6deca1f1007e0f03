package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/coordination"
	"repro/internal/expr"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// envelopeOf is the reference for (*enc).envelope: the TaskEnvelope of a
// submission, field by field, for encoding/json to render.
func envelopeOf(t *testing.T, task *workflow.Task, pol *coordination.Policy) *TaskEnvelope {
	env := &TaskEnvelope{ID: task.ID, Name: task.Name, NeedPlanning: task.NeedPlanning, Policy: pol}
	if task.Process != nil {
		raw, err := task.Process.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		env.Process = raw
	}
	if c := task.Case; c != nil {
		env.Goal, env.ResultSet = c.Goal.Conditions, c.ResultSet
		env.Deadline, env.Budget, env.HardDeadline = c.Deadline, c.Budget, c.HardDeadline
		env.Constraints = c.Constraints
		for _, item := range c.InitialData {
			env.Items = append(env.Items, EnvelopeItem{Name: item.Name, Props: item.Props})
		}
	}
	return env
}

// checkEncoding holds appendRecord to encoding/json's bytes for one record,
// and to decoding back into the same record.
func checkEncoding(t *testing.T, rec JournalRecord) {
	t.Helper()
	ref := rec
	ref.task, ref.policy = nil, nil
	if rec.task != nil {
		ref.Task = envelopeOf(t, rec.task, rec.policy)
	}
	want, wantErr := json.Marshal(ref)
	got, gotErr := appendRecord(nil, &rec)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("encoding/json error %v, appendRecord error %v", wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appendRecord differs from encoding/json\n got %s\nwant %s", got, want)
	}
	var back, refBack JournalRecord
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("record does not decode: %v\n%s", err, got)
	}
	if err := json.Unmarshal(want, &refBack); err != nil || !reflect.DeepEqual(back, refBack) {
		t.Fatalf("decoded %+v, reference decodes to %+v (%v)", back, refBack, err)
	}
}

// Values picked to sit on every branch of encoding/json's string and float
// encoders.
var (
	nastyStrings = []string{"", "plain", "D10", `quo"te`, `back\slash`, "<tag> & </tag>", "tab\tnl\ncr\rbs\bff\f",
		"ctl\x00\x01\x1f\x7f", "ünïcödé 日本語 🚀", "bad\xff\xfeutf8", "sep  ", "G.Classification = \"Resolution File\""}
	nastyNumbers = []float64{0, math.Copysign(0, -1), 1, -1.5, 8, 1e21, 9.99999999e20, 1e-7, 1e-6, 0.000001234,
		1 << 53, 1<<53 + 1, 1 << 62, -1e300, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.125, 1e-9, 5e-324}
)

func randomValue(rng *rand.Rand) expr.Value {
	switch rng.Intn(3) {
	case 0:
		return expr.String(nastyStrings[rng.Intn(len(nastyStrings))])
	case 1:
		return expr.Number(nastyNumbers[rng.Intn(len(nastyNumbers))])
	}
	return expr.Bool(rng.Intn(2) == 0)
}

func randomStrings(rng *rand.Rand) []string {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+rng.Intn(3))
	for i := range out {
		out[i] = nastyStrings[rng.Intn(len(nastyStrings))]
	}
	return out
}

// randomRecord builds one journal record of any of the three events.
func randomRecord(rng *rand.Rand) JournalRecord {
	str := func() string { return nastyStrings[rng.Intn(len(nastyStrings))] }
	num := func() float64 { return nastyNumbers[rng.Intn(len(nastyNumbers))] }
	rec := JournalRecord{
		Event:  []string{EventAccepted, EventStarted, EventSnapshot, str()}[rng.Intn(4)],
		TaskID: str(), Seq: rng.Int63n(3) * (1<<53 + 7), Attempt: rng.Intn(3), Priority: rng.Intn(3) - 1,
		Tenant: str(), Error: str(), Status: str(), Reason: str(),
	}
	if rec.Event != EventAccepted {
		return rec
	}
	task := &workflow.Task{ID: str(), Name: str(), NeedPlanning: rng.Intn(2) == 0}
	if rng.Intn(3) > 0 {
		task.Process = virolab.Process()
	}
	if rng.Intn(8) > 0 {
		c := &workflow.CaseDescription{
			Goal: workflow.NewGoal(randomStrings(rng)...), ResultSet: randomStrings(rng),
			Deadline: math.Abs(num()), Budget: math.Abs(num()), HardDeadline: rng.Intn(2) == 0,
		}
		switch rng.Intn(3) {
		case 0:
			c.Constraints = map[string]string{}
		case 1:
			c.Constraints = map[string]string{}
			for i, n := 0, 1+rng.Intn(10); i < n; i++ {
				c.Constraints[str()] = str()
			}
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			item := &workflow.DataItem{Name: str()}
			switch rng.Intn(3) {
			case 0:
				item.Props = map[string]expr.Value{}
			case 1:
				item.Props = map[string]expr.Value{}
				for j, m := 0, 1+rng.Intn(10); j < m; j++ {
					item.Props[str()] = randomValue(rng)
				}
			}
			c.InitialData = append(c.InitialData, item)
		}
		task.Case = c
	}
	rec.task = task
	if rng.Intn(2) == 0 {
		rec.policy = &coordination.Policy{MaxRetries: rng.Intn(5), ActivityTimeout: num(), BackoffBase: num(),
			BackoffCap: num(), Seed: rng.Int63() - 1<<62, Deadline: time.Duration(rng.Int63n(int64(time.Hour)))}
	}
	return rec
}

// TestJournalEncodingMatchesEncodingJSON is the byte-identity contract of the
// journal's append-style encoder.
func TestJournalEncodingMatchesEncodingJSON(t *testing.T) {
	// The encoder names every field by hand: a field added to one of these
	// must be added to appendRecord / (*enc).envelope (and generated above).
	for typ, fields := range map[reflect.Type]int{
		reflect.TypeOf(JournalRecord{}): 12, reflect.TypeOf(TaskEnvelope{}): 12, reflect.TypeOf(EnvelopeItem{}): 2,
	} {
		if typ.NumField() != fields {
			t.Errorf("%v has %d fields, the journal encoder knows %d", typ, typ.NumField(), fields)
		}
	}
	// The record the benchmark and the budget tests write.
	checkEncoding(t, JournalRecord{Event: EventAccepted, TaskID: "T1", Seq: 1, Priority: 1, Tenant: "default", task: virolab.Task()})
	checkEncoding(t, JournalRecord{Event: EventStarted, TaskID: "T1", Attempt: 1})
	checkEncoding(t, JournalRecord{Event: EventSnapshot, TaskID: "T1", Seq: 1, Attempt: 1, Priority: 1, Tenant: "default", Status: StatusCompleted})
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 3000; i++ {
		checkEncoding(t, randomRecord(rng))
	}
	// What encoding/json refuses, the encoder refuses.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		task := virolab.Task()
		task.Case.InitialData[0].With("x", expr.Number(bad))
		checkEncoding(t, JournalRecord{Event: EventAccepted, TaskID: "T1", task: task})
		if _, err := appendRecord(nil, &JournalRecord{Event: EventAccepted, TaskID: "T1", task: task}); err == nil {
			t.Errorf("appendRecord accepted the number %v", bad)
		}
	}
}

// FuzzJournalEncoding feeds the same contract arbitrary strings and numbers.
func FuzzJournalEncoding(f *testing.F) {
	for i, s := range nastyStrings {
		f.Add(s, nastyStrings[(i+1)%len(nastyStrings)], nastyNumbers[i%len(nastyNumbers)], int64(i)<<50, uint8(i))
	}
	f.Fuzz(func(t *testing.T, a, b string, x float64, n int64, flags uint8) {
		rec := JournalRecord{Event: a, TaskID: b, Seq: n, Attempt: int(flags), Tenant: a, Error: b, Status: a, Reason: b}
		if flags&1 != 0 {
			c := &workflow.CaseDescription{Goal: workflow.NewGoal(a, b), ResultSet: []string{b}, Deadline: x, Budget: -x,
				Constraints: map[string]string{a: b, b: a, "k": a}, HardDeadline: flags&2 != 0}
			c.AddData(&workflow.DataItem{Name: a, Props: map[string]expr.Value{
				a: expr.String(b), b: expr.Number(x), "n": expr.Number(float64(n)), "t": expr.Bool(flags&4 != 0)}})
			rec.task = &workflow.Task{ID: a, Name: b, NeedPlanning: flags&8 != 0, Case: c}
			if flags&16 != 0 {
				rec.policy = &coordination.Policy{MaxRetries: int(flags), BackoffBase: x, Seed: n, Deadline: time.Duration(n)}
			}
		}
		checkEncoding(t, rec)
	})
}
