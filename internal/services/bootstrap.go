package services

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/grid"
	"repro/internal/store"
)

// Core bundles the concrete service instances registered by Bootstrap, for
// scenarios that need direct access (forcing a brokerage refresh, reading
// checkpoints out of storage, adding authentication principals).
type Core struct {
	Information *Information
	Brokerage   *Brokerage
	Matchmaking *Matchmaking
	Monitoring  *Monitoring
	Scheduling  *Scheduling
	Storage     *Storage
	Auth        *Authentication
	Simulation  *Simulation
	Ontology    *OntologyService
}

// Bootstrap registers the standard core services plus one agent per grid
// application container on the platform, and registers everything with the
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
		Scheduling:  &Scheduling{Grid: g},
		Storage:     &Storage{Store: backend},
		Auth:        NewAuthentication("bootstrap-signing-key"),
		Simulation:  &Simulation{Grid: g},
		Ontology:    NewOntologyService(),
	}
	for name, h := range map[string]agent.Handler{
		InformationName:    core.Information,
		BrokerageName:      core.Brokerage,
		MatchmakingName:    core.Matchmaking,
		MonitoringName:     core.Monitoring,
		SchedulingName:     core.Scheduling,
		StorageName:        core.Storage,
		AuthenticationName: core.Auth,
		SimulationName:     core.Simulation,
		OntologyName:       core.Ontology,
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
		BrokerageName:      "brokerage",
		MatchmakingName:    "matchmaking",
		MonitoringName:     "monitoring",
		SchedulingName:     "scheduling",
		StorageName:        "persistent-storage",
		AuthenticationName: "authentication",
		SimulationName:     "simulation",
		OntologyName:       "ontology",
	}
	for name, typ := range offerTypes {
		if err := registrar.Send(InformationName, agent.Inform, OntInformation,
			Offer{Name: name, Type: typ, Location: "core"}); err != nil {
			return nil, err
		}
	}
	for _, c := range g.Containers() {
		ca := &ContainerAgent{Grid: g, Container: c.ID, Brokerage: core.Brokerage}
		if _, err := p.Register(c.ID, ca); err != nil {
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
