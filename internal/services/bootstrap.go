package services

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/grid"
	"repro/internal/store"
)

// Core bundles the concrete service instances Bootstrap builds, for callers
// that use them directly (matchmaking and simulation are libraries, not
// agents, and executions run by call) and scenarios that inspect service
// state.
type Core struct {
	Information *Information
	Brokerage   *Brokerage
	Matchmaking *Matchmaking
	Monitoring  *Monitoring
	Containers  *Containers
	Storage     *Storage
	Simulation  *Simulation
	Ontology    *OntologyService
}

// Bootstrap registers the core service agents plus one agent per grid
// application container on the platform, and registers them all with the
// information service. The storage service runs on backend (opened via
// store.Open; the caller keeps ownership of its lifecycle); nil means a
// fresh in-memory store.
func Bootstrap(p *agent.Platform, g *grid.Grid, backend store.Store) (*Core, error) {
	if backend == nil {
		backend = store.NewMemory(store.Options{})
	}
	core := &Core{
		Information: NewInformation(),
		Brokerage:   NewBrokerage(g),
		Matchmaking: &Matchmaking{Grid: g},
		Monitoring:  &Monitoring{Grid: g},
		Storage:     &Storage{Store: backend},
		Simulation:  &Simulation{Grid: g},
		Ontology:    NewOntologyService(),
	}
	core.Containers = &Containers{Grid: g, Brokerage: core.Brokerage, Monitoring: core.Monitoring}
	for name, h := range map[string]agent.Handler{
		InformationName: core.Information,
		BrokerageName:   core.Brokerage,
		MonitoringName:  core.Monitoring,
		StorageName:     core.Storage,
		OntologyName:    core.Ontology,
	} {
		if _, err := p.Register(name, h); err != nil {
			return nil, err
		}
	}

	// A registrar agent announces the core services and containers to the
	// information service, mirroring "all end-user services and other core
	// services register their offerings with the information services".
	registrar, err := p.Register("bootstrap-registrar", agent.HandlerFunc(func(*agent.Context, agent.Message) {}))
	if err != nil {
		return nil, err
	}
	offerTypes := map[string]string{
		BrokerageName:  "brokerage",
		MonitoringName: "monitoring",
		StorageName:    "persistent-storage",
		OntologyName:   "ontology",
	}
	for name, typ := range offerTypes {
		if err := registrar.Send(InformationName, agent.Inform, OntInformation,
			Offer{Name: name, Type: typ, Location: "core"}); err != nil {
			return nil, err
		}
	}
	for _, c := range g.Containers() {
		if _, err := p.Register(c.ID, &ContainerAgent{Grid: g, Container: c.ID}); err != nil {
			return nil, fmt.Errorf("services: registering container %s: %w", c.ID, err)
		}
		for _, svc := range c.Services {
			if err := registrar.Send(InformationName, agent.Inform, OntInformation,
				Offer{Name: c.ID, Type: "end-user:" + svc, Location: c.NodeID}); err != nil {
				return nil, err
			}
		}
	}
	return core, nil
}
