package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/workflow"
)

// The load generator. One process, a fixed small number of client
// goroutines; concurrency comes from each client keeping a window of
// outstanding operations, never from more goroutines. A client polls only
// its oldest outstanding operation per tenant and sleeps pollEvery between
// polls that find nothing, so the generator stays a small share of the CPU.
// Latency ends at the Finished stamp of the terminal status, not at the poll
// that saw it, so the poll interval does not quantise it.

const (
	pollEvery = 250 * time.Microsecond
	// opTimeout fails an operation that never turns terminal, so a wedged
	// task costs one failure instead of the run.
	opTimeout = 60 * time.Second
)

// op is one task from the generator's point of view.
type op struct {
	id      string
	tenant  int
	variant int // workload-defined (replan_mix: the case variant)
	class   int // workload-defined latency class (replan_mix: 0 miss, 1 hit)

	due    time.Time     // open loop: the scheduled instant; closed loop: the send instant
	sent   time.Time     // when the client began building the input
	build  time.Duration // building the input (PDL parse or JSON body)
	submit time.Duration // inside Engine.Submit, or the POST round trip
	polls  int

	st  engine.TaskStatus // terminal status, set once; its Report is dropped by settle
	err string            // why the op counts as failed; empty when it passed

	executed, retries, replans int // kept from the Report
}

func (o *op) latency() time.Duration { return o.st.Finished.Sub(o.due) }
func (o *op) started() time.Time {
	return o.st.Submitted.Add(time.Duration(o.st.QueueWait * float64(time.Second)))
}

// sender is the path an op takes into the system: in-process or HTTP.
type sender interface {
	// send builds o's input and submits it, filling o.build and o.submit.
	send(o *op) error
	// poll reports whether o is terminal, filling o.st when it is.
	poll(o *op) (bool, error)
}

// engineSender submits straight to Engine.Submit.
type engineSender struct {
	eng     *engine.Engine
	tenants []string
	newTask func(o *op) (*workflow.Task, error)
}

func (s *engineSender) send(o *op) error {
	t0 := time.Now()
	o.sent = t0
	task, err := s.newTask(o)
	if err != nil {
		return err
	}
	t1 := time.Now()
	_, err = s.eng.Submit(engine.Submission{Task: task, Priority: engine.PriorityNormal, Tenant: s.tenants[o.tenant]})
	o.build, o.submit = t1.Sub(t0), time.Since(t1)
	return err
}

func (s *engineSender) poll(o *op) (bool, error) { return pollEngine(s.eng, o) }

func pollEngine(eng *engine.Engine, o *op) (bool, error) {
	st, err := eng.Task(o.id)
	if err != nil {
		return false, err
	}
	if st.Finished.IsZero() {
		return false, nil
	}
	o.st = st
	return true, nil
}

// httpSender goes through POST/GET /api/v1/tasks on one keep-alive
// connection per client. The GET view carries no finish stamp, so once it
// reads terminal the sender takes the timestamps from the in-process engine.
type httpSender struct {
	base    string
	client  *http.Client
	eng     *engine.Engine
	tenants []string
	newBody func(o *op) ([]byte, error)
}

func (s *httpSender) send(o *op) error {
	t0 := time.Now()
	o.sent = t0
	body, err := s.newBody(o)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, s.base+"/api/v1/tasks", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", s.tenants[o.tenant])
	req.Header.Set("X-Request-Id", o.id)
	t1 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	resp.Body.Close()
	o.build, o.submit = t1.Sub(t0), time.Since(t1)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /api/v1/tasks: status %d", resp.StatusCode)
	}
	return nil
}

func (s *httpSender) poll(o *op) (bool, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+"/api/v1/tasks/"+o.id, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("X-Tenant", s.tenants[o.tenant])
	resp, err := s.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var view struct {
		Status string `json:"status"`
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return false, fmt.Errorf("GET /api/v1/tasks/%s: status %d", o.id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return false, err
	}
	switch view.Status {
	case "succeeded", "failed", "cancelled":
		return pollEngine(s.eng, o)
	}
	return false, nil
}

// newHTTPClient returns a client that holds exactly one connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// settle finishes an op: a poll or send error, a timeout, or a failed
// correctness check all land in o.err. The Report (final state, event
// trace: tens of KB) is let go once checked, or a long run would hold every
// one of them and the generator's heap would dwarf the system's.
func settle(o *op, err error, check func(*op) string) {
	switch {
	case err != nil:
		o.err = err.Error()
	case check != nil:
		o.err = check(o)
	}
	if r := o.st.Report; r != nil {
		o.executed, o.retries, o.replans = r.Executed, r.Retries, r.Replans
		o.st.Report = nil
	}
}

// pollHead asks for the status of a client's oldest outstanding op and
// reports whether the op is over: terminal, failed to poll, or timed out.
func pollHead(s sender, o *op, check func(*op) string) bool {
	o.polls++
	fin, err := s.poll(o)
	if err == nil && !fin && time.Since(o.due) > opTimeout {
		err = fmt.Errorf("task %s: no terminal status after %s", o.id, opTimeout)
	}
	if fin || err != nil {
		settle(o, err, check)
		return true
	}
	return false
}

// closedLoop runs `clients` goroutines, each keeping up to `window`
// outstanding ops per tenant, drawing ops from next until it returns nil (the
// source is exhausted, for good) and every window has drained. next is called
// concurrently and must be goroutine-safe.
func closedLoop(s sender, clients, tenants, window int, next func(tenant int) *op, check func(*op) string) []*op {
	done := make([][]*op, clients) // per client, in completion order
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(done *[]*op) {
			defer wg.Done()
			out := make([][]*op, tenants) // FIFO per tenant
			for {
				progressed, pending, dry := false, false, true
				for t := 0; t < tenants; t++ {
					for len(out[t]) < window {
						o := next(t)
						if o == nil {
							break
						}
						dry = false
						progressed = true
						o.due = time.Now()
						if err := s.send(o); err != nil {
							settle(o, err, nil)
							*done = append(*done, o)
							continue
						}
						out[t] = append(out[t], o)
					}
					if len(out[t]) == 0 {
						continue
					}
					pending = true
					if pollHead(s, out[t][0], check) {
						*done = append(*done, out[t][0])
						out[t] = out[t][1:]
						progressed = true
					}
				}
				if !pending && dry {
					return
				}
				if !progressed {
					time.Sleep(pollEvery)
				}
			}
		}(&done[c])
	}
	wg.Wait()
	return slices.Concat(done...)
}

// openLoop sends each client's ops at their due instants regardless of
// completions (the queue can grow), polling the oldest outstanding op in the
// gaps. schedule[c] lists client c's ops in due order; senders[c] is its
// connection.
func openLoop(senders []sender, schedule [][]*op, check func(*op) string) []*op {
	done := make([][]*op, len(schedule)) // per client, in completion order
	var wg sync.WaitGroup
	for c := range schedule {
		wg.Add(1)
		go func(s sender, todo []*op, done *[]*op) {
			defer wg.Done()
			var out []*op
			for len(todo) > 0 || len(out) > 0 {
				if len(todo) > 0 && !time.Now().Before(todo[0].due) {
					o := todo[0]
					todo = todo[1:]
					if err := s.send(o); err != nil {
						settle(o, err, nil)
						*done = append(*done, o)
						continue
					}
					out = append(out, o)
					continue
				}
				if len(out) > 0 && pollHead(s, out[0], check) {
					*done = append(*done, out[0])
					out = out[1:]
					continue
				}
				wait := pollEvery
				if len(todo) > 0 {
					if gap := time.Until(todo[0].due); gap < wait || len(out) == 0 {
						wait = gap
					}
				}
				if wait > 0 {
					time.Sleep(wait)
				}
			}
		}(senders[c], schedule[c], &done[c])
	}
	wg.Wait()
	return slices.Concat(done...)
}
