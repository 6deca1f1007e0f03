package services

import (
	"fmt"
	"sync"

	"repro/internal/agent"
	"repro/internal/ontology"
)

// KBRequest asks for a populated ontology.
type KBRequest struct{ Name string }

// KBReply carries a knowledge base serialized as JSON (ontologies cross
// agent boundaries by value, never by reference).
type KBReply struct {
	Name string
	JSON []byte
}

// OntologyService maintains and distributes ontology shells and populated
// ontologies, global and user-specific (Section 2).
type OntologyService struct {
	mu  sync.Mutex
	kbs map[string]*ontology.KB
}

// NewOntologyService returns a service preloaded with the grid shell under
// the name "grid".
func NewOntologyService() *OntologyService {
	return &OntologyService{kbs: map[string]*ontology.KB{"grid": ontology.GridShell()}}
}

// Add registers a knowledge base under a name.
func (s *OntologyService) Add(name string, kb *ontology.KB) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kbs[name] = kb
}

// HandleMessage implements agent.Handler.
func (s *OntologyService) HandleMessage(ctx *agent.Context, msg agent.Message) {
	switch req := msg.Content.(type) {
	case KBRequest:
		s.mu.Lock()
		kb := s.kbs[req.Name]
		s.mu.Unlock()
		if kb == nil {
			_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("ontology: unknown ontology %q", req.Name))
			return
		}
		data, err := kb.MarshalJSON()
		if err != nil {
			_ = ctx.Reply(msg, agent.Failure, err)
			return
		}
		_ = ctx.Reply(msg, agent.Inform, KBReply{Name: req.Name, JSON: data})
	default:
		_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("ontology: unsupported content %T", msg.Content))
	}
}
