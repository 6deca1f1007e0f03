package httpapi

// GET /api/v1/stats is the grid-wide rollup a dashboard polls: grid-node
// health counts, engine queue/worker state, enactment outcome totals and
// rates derived from the telemetry counters, and the event-bus publication
// counters — one request instead of stitching /monitor, /queue, and
// /metrics together client-side.

import (
	"net/http"

	"repro/internal/coordination"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/services"
	"repro/internal/store"
)

// StatsView is the GET /api/v1/stats response.
type StatsView struct {
	Nodes   statsNodes           `json:"nodes"`
	Engine  engine.Stats         `json:"engine"`
	Planner planner.ServiceStats `json:"planner"`
	Tasks   statsTasks           `json:"tasks"`
	Events  statsEvents          `json:"events"`
	Store   StoreView            `json:"store"`
}

// statsNodes summarizes grid-node health (monitoring's authoritative view).
type statsNodes struct {
	Total       int `json:"total"`
	Up          int `json:"up"`
	Down        int `json:"down"`
	Degraded    int `json:"degraded"`
	Quarantined int `json:"quarantined"`
}

// statsTasks aggregates enactment outcomes from the telemetry counters.
// SuccessRate is completed/(completed+failed), 0 when nothing finished yet.
type statsTasks struct {
	Completed   int64   `json:"completed"`
	Failed      int64   `json:"failed"`
	Cancelled   int64   `json:"cancelled"`
	Retries     int64   `json:"retries"`
	Replans     int64   `json:"replans"`
	SuccessRate float64 `json:"successRate"`
}

// statsEvents reports the event bus counters.
type statsEvents struct {
	Published int64 `json:"published"`
	Dropped   int64 `json:"dropped"`
}

// StoreView is the GET /api/v1/store response (also the "store" block of
// /api/v1/stats): the backend's own snapshot — kind, key/record counts,
// segment footprint, group-commit counters, compactions — plus the two
// derived depths a dashboard wants without walking keys itself: how many
// task journals and checkpoint histories the backend currently holds.
type StoreView struct {
	store.Stats
	// JournalDepth is the number of task journals (journal/* keys) live in
	// the backend; Checkpoints counts tasks with a checkpoint history.
	JournalDepth int `json:"journalDepth"`
	Checkpoints  int `json:"checkpoints"`
}

func (s *Server) storeView() StoreView {
	backend := s.env.Store
	return StoreView{
		Stats:        backend.Stats(),
		JournalDepth: len(backend.Keys(engine.JournalPrefix)),
		Checkpoints:  len(backend.Keys(coordination.CheckpointKey(""))),
	}
}

// handleStore serves the storage backend snapshot.
func (s *Server) handleStore(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.storeView())
}

// handleStats serves the rollup.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	client, err := s.clientContext()
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	reply, err := client.Call(services.MonitoringName, services.OntMonitoring,
		services.ClusterHealthRequest{}, services.CallTimeout)
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	ch, ok := reply.Content.(services.ClusterHealthReply)
	if !ok {
		s.writeError(w, r, http.StatusInternalServerError, "internal", "unexpected monitoring reply %T", reply.Content)
		return
	}

	snap := s.telemetry().Snapshot()
	out := StatsView{
		Nodes: statsNodes{
			Total:       len(ch.Nodes),
			Up:          ch.Up,
			Down:        ch.Down,
			Degraded:    ch.Degraded,
			Quarantined: ch.Quarantined,
		},
		Engine:  s.env.Engine.Stats(),
		Planner: s.env.Planner.Stats(),
		Tasks: statsTasks{
			Completed: snap.Counters["engine.tasks.completed"],
			Failed:    snap.Counters["engine.tasks.failed"],
			Cancelled: snap.Counters["engine.tasks.cancelled"],
			Retries:   snap.Counters["coordination.retries"],
			Replans:   snap.Counters["coordination.replans"],
		},
		Events: statsEvents{
			Published: snap.Counters["telemetry.events.published"],
			Dropped:   snap.Counters["telemetry.events.dropped"],
		},
		Store: s.storeView(),
	}
	if finished := out.Tasks.Completed + out.Tasks.Failed; finished > 0 {
		out.Tasks.SuccessRate = float64(out.Tasks.Completed) / float64(finished)
	}
	writeJSON(w, http.StatusOK, out)
}
