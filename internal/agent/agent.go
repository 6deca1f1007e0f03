// Package agent is an in-process multi-agent platform standing in for the
// Jade framework the paper builds on. Agents are named mailboxes served by
// one goroutine each; they exchange ACL-style messages (performative +
// content) asynchronously, with a synchronous request/reply convenience for
// the service interactions of Figures 2 and 3.
//
// The platform is deliberately small: a registry (white pages), reliable
// in-order point-to-point delivery, and conversation tracking. Yellow-page
// service discovery is itself an agent (the information service in package
// services), matching the paper's architecture where all end-user services
// and core services register their offerings with the information service.
package agent

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Performative classifies a message, following the FIPA ACL set the paper's
// Jade agents use.
type Performative int

// The performatives used by the core services.
const (
	Request Performative = iota
	Inform
	Agree
	Refuse
	Failure
	QueryRef
	Subscribe
	Cancel
)

func (p Performative) String() string {
	switch p {
	case Request:
		return "request"
	case Inform:
		return "inform"
	case Agree:
		return "agree"
	case Refuse:
		return "refuse"
	case Failure:
		return "failure"
	case QueryRef:
		return "query-ref"
	case Subscribe:
		return "subscribe"
	case Cancel:
		return "cancel"
	}
	return fmt.Sprintf("Performative(%d)", int(p))
}

// Message is one ACL message.
type Message struct {
	ID             uint64
	ConversationID uint64
	Performative   Performative
	Sender         string
	Receiver       string
	// Ontology names the vocabulary of Content (e.g. "grid-planning").
	Ontology string
	// Content is the payload; services define typed structs.
	Content any

	call *call // the caller's side of a synchronous call; nil otherwise
}

// call is the caller's side of one synchronous request, pooled: an answered
// call hands its record on to the next. Whoever moves conv from the request's
// conversation to 0 — Reply or the runtime's no-reply fallback — owns the
// one send on reply, so neither a duplicate Reply nor a fallback running
// after the caller moved on reaches a record serving another conversation.
type call struct {
	reply    chan Message // capacity 1: the one reply never blocks its sender
	timer    *time.Timer  // stopped while the record is pooled
	conv     atomic.Uint64
	deferred atomic.Bool // DeferReply: another goroutine replies, no fallback
}

var callPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &call{reply: make(chan Message, 1), timer: t}
}}

// answer delivers the reply to conversation conv, unless it already has one.
func (c *call) answer(conv uint64, reply Message) bool {
	if !c.conv.CompareAndSwap(conv, 0) {
		return false
	}
	c.reply <- reply
	return true
}

// DeferReply marks a synchronous request as answered asynchronously: the
// handler returns without replying and some other goroutine calls Reply
// later. Must be called on the handler goroutine, before HandleMessage
// returns. A no-op for messages that are not synchronous calls.
func (m Message) DeferReply() {
	if m.call != nil {
		m.call.deferred.Store(true)
	}
}

// Errors returned by platform operations.
var (
	ErrUnknownAgent = errors.New("agent: unknown agent")
	ErrStopped      = errors.New("agent: platform stopped")
	ErrTimeout      = errors.New("agent: call timed out")
	ErrNoReply      = errors.New("agent: agent terminated without replying")
)

// Handler is the behaviour of an agent: it receives each incoming message
// with a Context for sending and replying. A handler runs on the agent's
// single goroutine; blocking in it delays only that agent's mailbox.
type Handler interface {
	HandleMessage(ctx *Context, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx *Context, msg Message)

// HandleMessage implements Handler.
func (f HandlerFunc) HandleMessage(ctx *Context, msg Message) { f(ctx, msg) }

// Platform hosts agents and routes messages between them.
type Platform struct {
	mu      sync.RWMutex
	agents  map[string]*runtime
	stopped bool

	nextID     atomic.Uint64
	nextConv   atomic.Uint64
	trace      func(Message)
	mailboxCap int

	wg sync.WaitGroup
}

type runtime struct {
	name    string
	mailbox chan Message
	ctx     *Context
	done    chan struct{}

	// sendMu makes delivery and close exclusive — deliver holds it shared
	// across its send, stop alone to close the mailbox — or a sender that
	// looked the runtime up just before Shutdown sends on a closed channel.
	sendMu sync.RWMutex
	closed bool
}

// stop closes the mailbox once no send is in flight; the agent drains it.
func (rt *runtime) stop() {
	rt.sendMu.Lock()
	rt.closed = true
	close(rt.mailbox)
	rt.sendMu.Unlock()
}

// NewPlatform returns an empty platform. Mailboxes are buffered (capacity
// 256) so bursts between services do not deadlock.
func NewPlatform() *Platform {
	return &Platform{agents: make(map[string]*runtime), mailboxCap: 256}
}

// SetTrace installs a callback invoked for every delivered message, used by
// the figure-flow tests to assert the message sequences of Figures 2 and 3.
func (p *Platform) SetTrace(fn func(Message)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.trace = fn
}

// Register starts an agent with the given unique name and behaviour.
func (p *Platform) Register(name string, h Handler) (*Context, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return nil, ErrStopped
	}
	if name == "" {
		return nil, fmt.Errorf("agent: empty agent name")
	}
	if _, dup := p.agents[name]; dup {
		return nil, fmt.Errorf("agent: agent %q already registered", name)
	}
	rt := &runtime{
		name:    name,
		mailbox: make(chan Message, p.mailboxCap),
		done:    make(chan struct{}),
	}
	rt.ctx = &Context{platform: p, self: name}
	p.agents[name] = rt
	p.wg.Add(1)
	go p.serve(rt, h)
	return rt.ctx, nil
}

// MustRegister is Register that panics on error, for wiring fixed service
// topologies.
func (p *Platform) MustRegister(name string, h Handler) *Context {
	ctx, err := p.Register(name, h)
	if err != nil {
		panic(err)
	}
	return ctx
}

func (p *Platform) serve(rt *runtime, h Handler) {
	defer p.wg.Done()
	defer close(rt.done)
	for msg := range rt.mailbox {
		h.HandleMessage(rt.ctx, msg)
		if c := msg.call; c != nil && !c.deferred.Load() {
			// If the handler never replied (and did not defer the reply to
			// another goroutine), release the caller.
			c.answer(msg.ConversationID, Message{Performative: Failure, Sender: rt.name, Content: ErrNoReply})
		}
	}
}

// Has reports whether the named agent is registered.
func (p *Platform) Has(name string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.agents[name]
	return ok
}

// Shutdown stops every agent and waits for their goroutines to finish.
func (p *Platform) Shutdown() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	agents := p.agents
	p.agents = make(map[string]*runtime)
	p.mu.Unlock()
	for _, rt := range agents {
		rt.stop()
	}
	p.wg.Wait()
}

// deliver routes a message to its receiver's mailbox.
func (p *Platform) deliver(msg Message) error {
	p.mu.RLock()
	rt, ok := p.agents[msg.Receiver]
	trace := p.trace
	stopped := p.stopped
	p.mu.RUnlock()
	if stopped {
		return ErrStopped
	}
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAgent, msg.Receiver)
	}
	rt.sendMu.RLock()
	defer rt.sendMu.RUnlock()
	if rt.closed {
		return ErrStopped
	}
	if trace != nil {
		trace(msg)
	}
	rt.mailbox <- msg
	return nil
}

// Context is an agent's handle on the platform.
type Context struct {
	platform *Platform
	self     string
}

// Name returns the agent's own name.
func (c *Context) Name() string { return c.self }

// Platform returns the hosting platform.
func (c *Context) Platform() *Platform { return c.platform }

// Send delivers an asynchronous message to the named agent.
func (c *Context) Send(receiver string, perf Performative, ontology string, content any) error {
	msg := Message{
		ID:             c.platform.nextID.Add(1),
		ConversationID: c.platform.nextConv.Add(1),
		Performative:   perf,
		Sender:         c.self,
		Receiver:       receiver,
		Ontology:       ontology,
		Content:        content,
	}
	return c.platform.deliver(msg)
}

// Call sends a Request and blocks for the reply, up to timeout (zero means
// 10 seconds). The reply is whatever message the receiver passes to Reply.
func (c *Context) Call(receiver, ontology string, content any, timeout time.Duration) (Message, error) {
	return c.CallContext(context.Background(), receiver, ontology, content, timeout)
}

// CallContext is Call with cancellation: it additionally aborts the wait
// when ctx is done, returning ctx's error. The request is still delivered
// (the receiver may process it), only the caller stops waiting — the
// at-most-once reply is dropped on the floor, as with a timeout. A nil ctx
// behaves like Call.
func (c *Context) CallContext(ctx context.Context, receiver, ontology string, content any, timeout time.Duration) (Message, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Message{}, err
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	rec := callPool.Get().(*call)
	msg := Message{
		ID:             c.platform.nextID.Add(1),
		ConversationID: c.platform.nextConv.Add(1),
		Performative:   Request,
		Sender:         c.self,
		Receiver:       receiver,
		Ontology:       ontology,
		Content:        content,
		call:           rec,
	}
	rec.conv.Store(msg.ConversationID)
	rec.deferred.Store(false)
	if err := c.platform.deliver(msg); err != nil {
		callPool.Put(rec) // never left this goroutine
		return Message{}, err
	}
	rec.timer.Reset(timeout)
	select {
	case reply := <-rec.reply:
		// Only an answered call recycles its record, and only if its timer
		// had not fired: one that did may still deliver its tick.
		if rec.timer.Stop() {
			callPool.Put(rec)
		}
		if reply.Performative == Failure {
			if err, ok := reply.Content.(error); ok {
				return reply, err
			}
		}
		return reply, nil
	// A call that gives up drops its record, so the reply that may still
	// come lands in a channel nobody will use again.
	case <-ctx.Done():
		rec.timer.Stop()
		return Message{}, ctx.Err()
	case <-rec.timer.C:
		return Message{}, fmt.Errorf("%w: %s -> %s (%s)", ErrTimeout, c.self, receiver, ontology)
	}
}

// Reply answers a message received by this agent. For synchronous calls the
// reply goes straight to the waiting caller; otherwise it is delivered as a
// normal message.
func (c *Context) Reply(to Message, perf Performative, content any) error {
	reply := Message{
		ID:             c.platform.nextID.Add(1),
		ConversationID: to.ConversationID,
		Performative:   perf,
		Sender:         c.self,
		Receiver:       to.Sender,
		Ontology:       to.Ontology,
		Content:        content,
	}
	if to.call != nil {
		p := c.platform
		p.mu.RLock()
		trace := p.trace
		p.mu.RUnlock()
		if trace != nil {
			trace(reply)
		}
		if !to.call.answer(to.ConversationID, reply) {
			return fmt.Errorf("agent: duplicate reply to conversation %d", to.ConversationID)
		}
		return nil
	}
	return c.platform.deliver(reply)
}
