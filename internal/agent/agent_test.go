package agent

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoHandler replies to every request with its own content.
func echoHandler() Handler {
	return HandlerFunc(func(ctx *Context, msg Message) {
		if msg.Performative == Request {
			_ = ctx.Reply(msg, Inform, msg.Content)
		}
	})
}

func TestRegisterAndCall(t *testing.T) {
	p := NewPlatform()
	defer p.Shutdown()
	p.MustRegister("echo", echoHandler())
	caller := p.MustRegister("caller", HandlerFunc(func(*Context, Message) {}))

	reply, err := caller.Call("echo", "test", "hello", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != Inform || reply.Content != "hello" {
		t.Errorf("reply = %+v", reply)
	}
	if reply.Sender != "echo" || reply.Receiver != "caller" {
		t.Errorf("routing = %s -> %s", reply.Sender, reply.Receiver)
	}
}

func TestAsyncSend(t *testing.T) {
	p := NewPlatform()
	defer p.Shutdown()
	got := make(chan Message, 1)
	p.MustRegister("sink", HandlerFunc(func(_ *Context, msg Message) { got <- msg }))
	sender := p.MustRegister("sender", HandlerFunc(func(*Context, Message) {}))

	if err := sender.Send("sink", Inform, "news", 42); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if msg.Content != 42 || msg.Performative != Inform || msg.Ontology != "news" {
			t.Errorf("msg = %+v", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestUnknownAgent(t *testing.T) {
	p := NewPlatform()
	defer p.Shutdown()
	c := p.MustRegister("a", HandlerFunc(func(*Context, Message) {}))
	if err := c.Send("ghost", Inform, "", nil); !errors.Is(err, ErrUnknownAgent) {
		t.Errorf("Send to ghost = %v", err)
	}
	if _, err := c.Call("ghost", "", nil, time.Second); !errors.Is(err, ErrUnknownAgent) {
		t.Errorf("Call to ghost = %v", err)
	}
}

func TestDuplicateAndEmptyNames(t *testing.T) {
	p := NewPlatform()
	defer p.Shutdown()
	p.MustRegister("a", echoHandler())
	if _, err := p.Register("a", echoHandler()); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := p.Register("", echoHandler()); err == nil {
		t.Error("empty name accepted")
	}
}

func TestCallTimeout(t *testing.T) {
	p := NewPlatform()
	defer p.Shutdown()
	block := make(chan struct{})
	p.MustRegister("slow", HandlerFunc(func(ctx *Context, msg Message) {
		<-block
		_ = ctx.Reply(msg, Inform, "late")
	}))
	c := p.MustRegister("c", HandlerFunc(func(*Context, Message) {}))
	_, err := c.Call("slow", "", nil, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want timeout", err)
	}
	close(block)
}

func TestNoReplyYieldsFailure(t *testing.T) {
	p := NewPlatform()
	defer p.Shutdown()
	p.MustRegister("mute", HandlerFunc(func(*Context, Message) {}))
	c := p.MustRegister("c", HandlerFunc(func(*Context, Message) {}))
	reply, err := c.Call("mute", "", nil, time.Second)
	if !errors.Is(err, ErrNoReply) {
		t.Errorf("err = %v, want ErrNoReply", err)
	}
	if reply.Performative != Failure {
		t.Errorf("performative = %v, want Failure", reply.Performative)
	}
}

func TestRefuseAndFailureReplies(t *testing.T) {
	p := NewPlatform()
	defer p.Shutdown()
	p.MustRegister("picky", HandlerFunc(func(ctx *Context, msg Message) {
		_ = ctx.Reply(msg, Refuse, "not today")
	}))
	c := p.MustRegister("c", HandlerFunc(func(*Context, Message) {}))
	reply, err := c.Call("picky", "", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != Refuse || reply.Content != "not today" {
		t.Errorf("reply = %+v", reply)
	}
}

func TestInOrderDelivery(t *testing.T) {
	p := NewPlatform()
	defer p.Shutdown()
	const n = 500
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	p.MustRegister("sink", HandlerFunc(func(_ *Context, msg Message) {
		mu.Lock()
		got = append(got, msg.Content.(int))
		if len(got) == n {
			close(done)
		}
		mu.Unlock()
	}))
	s := p.MustRegister("s", HandlerFunc(func(*Context, Message) {}))
	for i := 0; i < n; i++ {
		if err := s.Send("sink", Inform, "", i); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestChainedCalls(t *testing.T) {
	// coordination -> planning -> information, mirroring Figure 2/3 nesting.
	p := NewPlatform()
	defer p.Shutdown()
	p.MustRegister("information", HandlerFunc(func(ctx *Context, msg Message) {
		_ = ctx.Reply(msg, Inform, "brokerage-1")
	}))
	p.MustRegister("planning", HandlerFunc(func(ctx *Context, msg Message) {
		r, err := ctx.Call("information", "lookup", "brokerage?", time.Second)
		if err != nil {
			_ = ctx.Reply(msg, Failure, err)
			return
		}
		_ = ctx.Reply(msg, Inform, "plan-via-"+r.Content.(string))
	}))
	c := p.MustRegister("coordination", HandlerFunc(func(*Context, Message) {}))
	reply, err := c.Call("planning", "plan", "task", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Content != "plan-via-brokerage-1" {
		t.Errorf("content = %v", reply.Content)
	}
}

func TestAgentsListingAndShutdown(t *testing.T) {
	p := NewPlatform()
	p.MustRegister("b", echoHandler())
	p.MustRegister("a", echoHandler())
	if !p.Has("a") || !p.Has("b") || p.Has("c") {
		t.Errorf("Has(a, b, c) = %v, %v, %v", p.Has("a"), p.Has("b"), p.Has("c"))
	}
	p.Shutdown()
	p.Shutdown() // idempotent
	if p.Has("a") || p.Has("b") {
		t.Error("agents survive shutdown")
	}
	if _, err := p.Register("late", echoHandler()); !errors.Is(err, ErrStopped) {
		t.Errorf("register after shutdown = %v", err)
	}
	c := &Context{platform: p, self: "ghost"}
	if err := c.Send("a", Inform, "", nil); !errors.Is(err, ErrStopped) {
		t.Errorf("send after shutdown = %v", err)
	}
}

func TestTraceSeesRequestAndReply(t *testing.T) {
	p := NewPlatform()
	defer p.Shutdown()
	var mu sync.Mutex
	var seen []string
	p.SetTrace(func(m Message) {
		mu.Lock()
		seen = append(seen, m.Sender+"->"+m.Receiver+":"+m.Performative.String())
		mu.Unlock()
	})
	p.MustRegister("echo", echoHandler())
	c := p.MustRegister("c", HandlerFunc(func(*Context, Message) {}))
	if _, err := c.Call("echo", "t", "x", time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	joined := strings.Join(seen, " ")
	if !strings.Contains(joined, "c->echo:request") || !strings.Contains(joined, "echo->c:inform") {
		t.Errorf("trace = %v", seen)
	}
}

func TestContextAccessors(t *testing.T) {
	p := NewPlatform()
	defer p.Shutdown()
	c := p.MustRegister("me", echoHandler())
	if c.Name() != "me" || c.Platform() != p {
		t.Error("accessors broken")
	}
}

func TestPerformativeStrings(t *testing.T) {
	for _, perf := range []Performative{Request, Inform, Agree, Refuse, Failure, QueryRef, Subscribe, Cancel, Performative(99)} {
		if perf.String() == "" {
			t.Errorf("Performative(%d).String() empty", perf)
		}
	}
}

func TestConcurrentCallers(t *testing.T) {
	p := NewPlatform()
	defer p.Shutdown()
	p.MustRegister("echo", echoHandler())
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		name := "caller" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		c := p.MustRegister(name, HandlerFunc(func(*Context, Message) {}))
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				reply, err := c.Call("echo", "t", i*1000+j, time.Second)
				if err != nil {
					errs <- err
					return
				}
				if reply.Content != i*1000+j {
					errs <- errors.New("cross-talk between conversations")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func BenchmarkCallRoundTrip(b *testing.B) {
	p := NewPlatform()
	defer p.Shutdown()
	p.MustRegister("echo", echoHandler())
	c := p.MustRegister("c", HandlerFunc(func(*Context, Message) {}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("echo", "bench", i, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSendRacingShutdown is the "send on closed channel" regression: senders
// that resolved the receiver before Shutdown — most of them parked behind its
// full mailbox — must see their send complete or fail with ErrStopped, never
// reach a closed channel.
func TestSendRacingShutdown(t *testing.T) {
	p := NewPlatform()
	p.MustRegister("busy", HandlerFunc(func(ctx *Context, msg Message) {
		time.Sleep(5 * time.Microsecond) // slower than its senders: the mailbox stays full
		if msg.Performative == Request {
			_ = ctx.Reply(msg, Inform, nil)
		}
	}))
	sender := p.MustRegister("sender", HandlerFunc(func(*Context, Message) {}))

	var wg sync.WaitGroup
	var sent atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				var err error
				if g%4 == 0 {
					_, err = sender.Call("busy", "t", nil, 5*time.Second)
				} else {
					err = sender.Send("busy", Inform, "t", nil)
				}
				if errors.Is(err, ErrStopped) {
					return
				}
				if err != nil {
					t.Errorf("send during shutdown: %v", err)
					return
				}
				sent.Add(1)
			}
		}(g)
	}
	for sent.Load() < 2*256 { // past the mailbox capacity: senders are blocking on it
		time.Sleep(time.Millisecond)
	}
	p.Shutdown()
	wg.Wait()
}

// TestCallRecordsNeverCrossTalk drives the pooled call records through every
// way a call ends — answered, answered from another goroutine, timed out and
// answered late — at once, and checks each caller only ever sees the reply
// to its own request.
func TestCallRecordsNeverCrossTalk(t *testing.T) {
	p := NewPlatform()
	defer p.Shutdown()
	p.MustRegister("echo", echoHandler())
	p.MustRegister("deferring", HandlerFunc(func(ctx *Context, msg Message) {
		msg.DeferReply()
		go func() { _ = ctx.Reply(msg, Inform, msg.Content) }()
	}))
	p.MustRegister("late", HandlerFunc(func(ctx *Context, msg Message) {
		msg.DeferReply()
		go func() {
			time.Sleep(2 * time.Millisecond) // past the caller's timeout
			_ = ctx.Reply(msg, Inform, "late")
		}()
	}))
	caller := p.MustRegister("caller", HandlerFunc(func(*Context, Message) {}))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				want := g*1000 + i
				target := [...]string{"echo", "deferring", "late"}[i%3]
				timeout := time.Second
				if target == "late" {
					timeout = 100 * time.Microsecond
				}
				reply, err := caller.Call(target, "t", want, timeout)
				switch {
				case target == "late" && errors.Is(err, ErrTimeout):
				case err != nil:
					t.Errorf("call %d to %s: %v", want, target, err)
				case target != "late" && reply.Content != want:
					t.Errorf("call %d to %s answered with %v", want, target, reply.Content)
				}
			}
		}(g)
	}
	wg.Wait()
}
