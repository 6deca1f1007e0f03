// Package services implements the core services of Figure 1. Those that
// something messages — information, brokerage, monitoring, persistent
// storage and ontology, plus the Application Container agents that answer
// availability probes — are agents on the platform of package agent.
// Matchmaking, scheduling and simulation are libraries their callers use
// directly, and so is execution on a container (Containers), which reports
// to the brokerage and monitoring by call; Figure 1's authentication service
// is not reproduced. The
// planning and coordination services live in their own packages (planning,
// coordination) and talk to these agents over the same message ontologies.
//
// Core services are persistent and reliable; end-user services (the
// containers) may fail with their nodes, which is what exercises the
// re-planning flow of Figure 3.
package services

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/agent"
)

// Well-known agent names for the core services.
const (
	InformationName  = "information"
	BrokerageName    = "brokerage"
	MatchmakingName  = "matchmaking"
	MonitoringName   = "monitoring"
	StorageName      = "storage"
	PlanningName     = "planning"
	CoordinationName = "coordination"
	OntologyName     = "ontology"
)

// Ontology names (the vocabulary tag on messages).
const (
	OntInformation = "grid-information"
	OntBrokerage   = "grid-brokerage"
	OntMonitoring  = "grid-monitoring"
	OntStorage     = "grid-storage"
	OntExecution   = "grid-execution"
	OntPlanning    = "grid-planning"
	OntOntology    = "grid-ontology"
)

// CallTimeout is the default synchronous call budget between services.
const CallTimeout = 30 * time.Second

// ---------------------------------------------------------------------------
// Information service: all services register their offerings here (white and
// yellow pages).

// Offer describes one registered service offering.
type Offer struct {
	Name     string // agent name providing the offer
	Type     string // offering type, e.g. "brokerage", "end-user:P3DR"
	Location string
}

// LookupRequest asks for the agents offering a type.
type LookupRequest struct{ Type string }

// LookupReply lists the matching offers sorted by agent name.
type LookupReply struct{ Offers []Offer }

// Information is the information service agent.
type Information struct {
	mu     sync.Mutex
	offers map[string][]Offer // type -> offers
}

// NewInformation returns an empty information service.
func NewInformation() *Information {
	return &Information{offers: make(map[string][]Offer)}
}

// HandleMessage implements agent.Handler.
func (s *Information) HandleMessage(ctx *agent.Context, msg agent.Message) {
	switch content := msg.Content.(type) {
	case Offer:
		s.mu.Lock()
		s.offers[content.Type] = append(s.offers[content.Type], content)
		s.mu.Unlock()
		if msg.Performative == agent.Request {
			_ = ctx.Reply(msg, agent.Agree, content)
		}
	case LookupRequest:
		s.mu.Lock()
		offers := append([]Offer(nil), s.offers[content.Type]...)
		s.mu.Unlock()
		sort.Slice(offers, func(i, j int) bool { return offers[i].Name < offers[j].Name })
		_ = ctx.Reply(msg, agent.Inform, LookupReply{Offers: offers})
	default:
		_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("information: unsupported content %T", msg.Content))
	}
}

// Lookup queries the information service for offers of a type.
func Lookup(ctx *agent.Context, offerType string) ([]Offer, error) {
	reply, err := ctx.Call(InformationName, OntInformation, LookupRequest{Type: offerType}, CallTimeout)
	if err != nil {
		return nil, err
	}
	lr, ok := reply.Content.(LookupReply)
	if !ok {
		return nil, fmt.Errorf("services: unexpected lookup reply %T", reply.Content)
	}
	return lr.Offers, nil
}
