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

// GetRequest retrieves a key; Version 0 means latest.
type GetRequest struct {
	Key     string
	Version int
}

// GetReply carries the value.
type GetReply struct {
	Found   bool
	Version int
	Value   []byte
}

// ListRequest lists keys with a prefix.
type ListRequest struct{ Prefix string }

// ListReply lists matching keys sorted.
type ListReply struct{ Keys []string }

// DeleteRequest removes a key and all its versions.
type DeleteRequest struct{ Key string }

// Storage is the persistent storage service agent: a versioned key-value
// store backing checkpoints of long-lasting tasks, the enactment engine's
// write-ahead journal, and the archive of process descriptions. Since the
// Store extraction it is a thin agent facade over a pluggable backend
// (store.Open's mem: and file: DSNs) — durability semantics, group
// commit, and compaction all live in internal/store.
type Storage struct {
	store.Store
}

// HandleMessage implements agent.Handler. Mutations (put, delete) are
// answered from a goroutine: on durable backends they block until their
// group-commit batch is fsynced, and parking that wait off the mailbox
// goroutine lets concurrent writers coalesce into one batch instead of
// serializing one fsync per message. Per-caller ordering is preserved
// because writers use Call and wait for the reply.
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
	case GetRequest:
		value, ver, found, err := s.Get(req.Key, req.Version)
		if err != nil {
			_ = ctx.Reply(msg, agent.Failure, fmt.Sprintf("storage: get %s: %v", req.Key, err))
			return
		}
		_ = ctx.Reply(msg, agent.Inform, GetReply{Found: found, Version: ver, Value: value})
	case ListRequest:
		_ = ctx.Reply(msg, agent.Inform, ListReply{Keys: s.Keys(req.Prefix)})
	case DeleteRequest:
		msg.DeferReply()
		go func() {
			if err := s.Delete(req.Key); err != nil {
				_ = ctx.Reply(msg, agent.Failure, fmt.Sprintf("storage: delete %s: %v", req.Key, err))
				return
			}
			_ = ctx.Reply(msg, agent.Agree, nil)
		}()
	default:
		_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("storage: unsupported content %T", msg.Content))
	}
}
