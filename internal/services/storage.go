package services

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/store"
)

// PutRequest stores a value under a key; each put creates a new version.
type PutRequest struct {
	Key   string
	Value []byte
}

// PutReply reports the stored version (1-based).
type PutReply struct{ Version int }

// Storage is the persistent storage service agent: a versioned key-value
// store backing checkpoints of long-lasting tasks, the enactment engine's
// write-ahead journal, and the archive of process descriptions. Since the
// Store extraction it is a thin agent facade over a pluggable backend
// (store.Open's mem: and file: DSNs) — durability semantics, group
// commit, and compaction all live in internal/store.
type Storage struct {
	store.Store
}

// HandleMessage implements agent.Handler. A put is answered from a
// goroutine: on durable backends it blocks until its group-commit batch is
// fsynced, and parking that wait off the mailbox goroutine lets concurrent
// writers coalesce into one batch instead of serializing one fsync per
// message. Per-caller ordering is preserved because writers use Call and
// wait for the reply.
func (s *Storage) HandleMessage(ctx *agent.Context, msg agent.Message) {
	switch req := msg.Content.(type) {
	case PutRequest:
		msg.DeferReply()
		go func() {
			ver, err := s.Put(req.Key, req.Value)
			if err != nil {
				_ = ctx.Reply(msg, agent.Failure, fmt.Sprintf("storage: put %s: %v", req.Key, err))
				return
			}
			_ = ctx.Reply(msg, agent.Inform, PutReply{Version: ver})
		}()
	default:
		_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("storage: unsupported content %T", msg.Content))
	}
}
