package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/coordination"
	"repro/internal/expr"
	"repro/internal/virolab"
	"repro/internal/workflow"
)

// envelopeOf is the reference for (*enc).envelope: the TaskEnvelope of a
// submission, field by field, for encoding/json to render.
func envelopeOf(task *workflow.Task, pol *coordination.Policy) *TaskEnvelope {
	env := &TaskEnvelope{ID: task.ID, Name: task.Name, NeedPlanning: task.NeedPlanning, Policy: pol}
	if task.Process != nil {
		env.Process = task.Process.AppendJSON(nil)
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

// reference is rec as encoding/json renders it: its Task built from the
// submission appendRecord renders.
func reference(rec JournalRecord) JournalRecord {
	ref := rec
	ref.task, ref.policy = nil, nil
	if rec.task != nil {
		ref.Task = envelopeOf(rec.task, rec.policy)
	}
	return ref
}

// checkEncoding holds appendRecord to encoding/json's bytes for one record,
// and to decoding back into the same record.
func checkEncoding(t *testing.T, rec JournalRecord) {
	t.Helper()
	want, wantErr := json.Marshal(reference(rec))
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
		Budget: num(), Deadline: num(), HardDeadline: rng.Intn(2) == 0,
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

// journalRecords are the records the encoding and decoding contracts are
// checked on: the Fig-10 records the benchmark and the budget tests write,
// 3 000 random ones, and records with numbers encoding/json refuses.
func journalRecords() []JournalRecord {
	recs := []JournalRecord{
		{Event: EventAccepted, TaskID: "T1", Seq: 1, Priority: 1, Tenant: "default", task: virolab.Task()},
		{Event: EventStarted, TaskID: "T1", Attempt: 1},
		{Event: EventSnapshot, TaskID: "T1", Seq: 1, Attempt: 1, Priority: 1, Tenant: "default", Status: StatusCompleted},
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 3000; i++ {
		recs = append(recs, randomRecord(rng))
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		task := virolab.Task()
		task.Case.InitialData[0].With("x", expr.Number(bad))
		recs = append(recs, JournalRecord{Event: EventAccepted, TaskID: "T1", task: task})
	}
	return recs
}

// TestJournalEncodingMatchesEncodingJSON is the byte-identity contract of the
// journal's append-style encoder.
func TestJournalEncodingMatchesEncodingJSON(t *testing.T) {
	// The encoder and the decoder name every field by hand: a field added to
	// one of these must be added to appendRecord / (*enc).envelope, to the
	// decode methods (and generated above).
	for typ, fields := range map[reflect.Type]int{
		reflect.TypeOf(JournalRecord{}): 15, reflect.TypeOf(TaskEnvelope{}): 12, reflect.TypeOf(EnvelopeItem{}): 2,
	} {
		if typ.NumField() != fields {
			t.Errorf("%v has %d fields, the journal encoder knows %d", typ, typ.NumField(), fields)
		}
	}
	for _, rec := range journalRecords() {
		checkEncoding(t, rec)
	}
	// What encoding/json refuses, the encoder refuses.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		task := virolab.Task()
		task.Case.InitialData[0].With("x", expr.Number(bad))
		if _, err := appendRecord(nil, &JournalRecord{Event: EventAccepted, TaskID: "T1", task: task}); err == nil {
			t.Errorf("appendRecord accepted the number %v", bad)
		}
	}
}

// journalKeys are the keys the decoder reads.
var journalKeys = func() []string {
	keys := []string{"k", "s", "n", "b"} // an expr.Value's
	for _, typ := range []reflect.Type{reflect.TypeOf(JournalRecord{}), reflect.TypeOf(TaskEnvelope{}), reflect.TypeOf(EnvelopeItem{})} {
		for i := 0; i < typ.NumField(); i++ {
			if tag, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); tag != "" {
				keys = append(keys, tag)
			}
		}
	}
	return keys
}()

// foldedKey reports whether v, decoded JSON, has a key that only
// encoding/json's case-insensitive match takes for one of journalKeys: where
// the decoder parts from it by design.
func foldedKey(v any) bool {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			for _, known := range journalKeys {
				if k != known && strings.EqualFold(k, known) {
					return true
				}
			}
			if foldedKey(x) {
				return true
			}
		}
	case []any:
		for _, x := range v {
			if foldedKey(x) {
				return true
			}
		}
	}
	return false
}

// checkDecode holds decodeRecord to json.Unmarshal on data: the same record,
// or both an error.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var want, got JournalRecord
	wantErr := json.Unmarshal(data, &want)
	gotErr := got.decode(data)
	if wantErr == nil && gotErr == nil && reflect.DeepEqual(got, want) || wantErr != nil && gotErr != nil {
		return
	}
	var v any
	if json.Unmarshal(data, &v) == nil && foldedKey(v) {
		return
	}
	t.Fatalf("%q:\ndecoder reads %+v (%v)\nencoding/json %+v (%v)", data, got, gotErr, want, wantErr)
}

// Record texts the encoder never writes, each on a branch of the decoder:
// null, empty and repeated members, which encoding/json reads into what the
// first occurrence left.
var recordTexts = []string{
	`null`, `{}`, `{"task":null}`, `{"task":{"id":"a","name":"n"},"task":{"id":"b"}}`, `{"task":{"id":"a"},"task":null}`,
	`{"task":{"goal":[],"resultSet":null,"items":[],"constraints":{},"policy":{}}}`,
	`{"task":{"goal":["a","b"],"goal":["c"],"items":[{"name":"x","props":{"p":{"k":"b","b":true}}}],"items":[{"props":{"q":{"k":"s"}}},{"name":"y"}]}}`,
	`{"task":{"items":[null,{"props":null}],"constraints":{"a":"1","b":null},"constraints":{"c":"3"}}}`,
	`{"task":{"process":null,"policy":null}}`, `{"task":{"process":"x","policy":{"MaxRetries":2},"policy":{"Seed":-3}}}`,
	`{"task":{"policy":{"maxretries":2.5}}}`, `{"task":{"policy":[]}}`, `{"task":{"items":[{"props":{"p":null}}]}}`,
	`{"seq":9007199254740993,"attempt":-0,"priority":1e2}`, `{"seq":1.5}`, `{"attempt":99999999999999999999}`,
	`{"task":{"deadline":1e400}}`, `{"task":{"deadline":-0,"budget":null,"hardDeadline":null,"needPlanning":true}}`,
	`{"event":"\u0061ccepted","t\u0061skId":"T\ud83d\ude80","unknown":{"task":{"id":[1,2,{}]}}}`,
	`{"task":{"id":"a"}} `, `{"task":{"id":"a"}}}`, `{"task":{"id":"a"}`, `[]`, `"x"`, `5`, ``,
}

// TestJournalDecodeMatchesEncodingJSON is the read side's contract: every
// record the encoding contract checks, and every text above, decodes to what
// json.Unmarshal reads.
func TestJournalDecodeMatchesEncodingJSON(t *testing.T) {
	for _, rec := range journalRecords() {
		if data, err := json.Marshal(reference(rec)); err == nil {
			checkDecode(t, data)
		}
	}
	for _, text := range recordTexts {
		checkDecode(t, []byte(text))
	}
}

// valueTokens returns where each value of data, valid JSON, stands: every
// object, array, string, number, true, false and null but the object keys.
func valueTokens(data []byte) [][2]int {
	dec := json.NewDecoder(bytes.NewReader(data))
	var out [][2]int
	var open []int      // where each open object or array starts
	var inObject []bool // whether it is an object
	key := false        // the next token is an object key
	for {
		start := int(dec.InputOffset())
		tok, err := dec.Token()
		if err != nil {
			return out
		}
		for start < len(data) && strings.IndexByte(" \t\r\n,:", data[start]) >= 0 {
			start++
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			open, inObject = append(open, start), append(inObject, tok == json.Delim('{'))
			key = tok == json.Delim('{')
			continue
		case json.Delim('}'), json.Delim(']'):
			out = append(out, [2]int{open[len(open)-1], int(dec.InputOffset())})
			open, inObject = open[:len(open)-1], inObject[:len(inObject)-1]
		default:
			if key {
				key = false
				continue
			}
			out = append(out, [2]int{start, int(dec.InputOffset())})
		}
		key = len(inObject) > 0 && inObject[len(inObject)-1]
	}
}

// FuzzJournalDecode holds the decoder to json.Unmarshal on records and on
// what they turn into when cut short, when a byte range drops out, and when
// one value gives way to other bytes: the same record or both an error, and
// never a panic.
func FuzzJournalDecode(f *testing.F) {
	with := []string{"null", "0", "-1.5e3", "1e400", "1.5", "true", `"x"`, `"\ud83d"`, "{}", "[]", `{"k":"n","n":1}`,
		`[null,"a"]`, `"twice","task":{"id":"twice"}`, `{"id":"x"}`, `{"A":{"k":"s","s":"a","s":"b"}}`, `"a","props":{"x":{"k":"b","b":true}}`, `1,"TaskId":"folded"`, ""}
	for i, rec := range journalRecords() {
		if data, err := json.Marshal(reference(rec)); err == nil {
			f.Add(data, uint16(i*7919), uint16(i*104729), []byte(with[i%len(with)]))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, at, to uint16, with []byte) {
		checkDecode(t, data)
		if len(data) == 0 {
			return
		}
		i, j := int(at)%len(data), int(to)%len(data)
		if i > j {
			i, j = j, i
		}
		checkDecode(t, data[:i])
		checkDecode(t, slices.Concat(data[:i], data[j:]))
		if tokens := valueTokens(data); len(tokens) > 0 {
			for _, k := range []uint16{at, to} {
				tok := tokens[int(k)%len(tokens)]
				checkDecode(t, slices.Concat(data[:tok[0]], with, data[tok[1]:]))
			}
		}
	})
}

// FuzzJournalEncoding feeds the same contract arbitrary strings and numbers.
func FuzzJournalEncoding(f *testing.F) {
	for i, s := range nastyStrings {
		f.Add(s, nastyStrings[(i+1)%len(nastyStrings)], nastyNumbers[i%len(nastyNumbers)], int64(i)<<50, uint8(i))
	}
	f.Fuzz(func(t *testing.T, a, b string, x float64, n int64, flags uint8) {
		rec := JournalRecord{Event: a, TaskID: b, Seq: n, Attempt: int(flags), Tenant: a, Error: b, Status: a, Reason: b,
			Budget: x, Deadline: -x, HardDeadline: flags&32 != 0}
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
