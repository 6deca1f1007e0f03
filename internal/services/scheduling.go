package services

import (
	"fmt"
	"log/slog"

	"repro/internal/agent"
	"repro/internal/grid"
	"repro/internal/telemetry"
)

// TaskSpec describes one independent task to schedule.
type TaskSpec struct {
	ID       string
	Service  string
	BaseTime float64
	DataMB   float64
}

// Assignment places a task on a container with its predicted interval.
type Assignment struct {
	Task      string
	Container string
	Node      string
	Start     float64
	Finish    float64
}

// ScheduleRequest asks for a schedule of independent tasks over the
// containers currently offering their services. Heuristic selects the
// policy (zero value: min-min).
type ScheduleRequest struct {
	Tasks     []TaskSpec
	Heuristic Heuristic
}

// ScheduleReply carries the schedule and its makespan.
type ScheduleReply struct {
	Assignments []Assignment
	Makespan    float64
}

// Scheduling is the scheduling service agent. It implements the classic
// min-min list-scheduling heuristic over predicted execution times: at each
// step, the task whose best completion time is smallest is placed on the
// container achieving it.
type Scheduling struct {
	Grid *grid.Grid

	// Telemetry, when set, counts scheduling decisions per heuristic and
	// observes makespans (see OBSERVABILITY.md).
	Telemetry *telemetry.Registry

	// Logger, when set, records one debug line per scheduling decision.
	Logger *slog.Logger
}

// record feeds the telemetry registry after one scheduling decision.
func (s *Scheduling) record(h Heuristic, requested int, out ScheduleReply) {
	if s.Logger != nil {
		s.Logger.Debug("schedule computed",
			slog.String("heuristic", h.String()), slog.Int("tasks", requested),
			slog.Int("assigned", len(out.Assignments)), slog.Float64("makespanSec", out.Makespan))
	}
	tel := s.Telemetry
	if tel == nil {
		return
	}
	tel.Counter("scheduling.requests").Inc()
	tel.Counter("scheduling.requests." + h.String()).Inc()
	tel.Counter("scheduling.tasks.assigned").Add(int64(len(out.Assignments)))
	tel.Counter("scheduling.tasks.dropped").Add(int64(requested - len(out.Assignments)))
	tel.Histogram("scheduling.makespan.seconds",
		[]float64{60, 300, 1800, 3600, 10800, 43200}).Observe(out.Makespan)
}

// HandleMessage implements agent.Handler.
func (s *Scheduling) HandleMessage(ctx *agent.Context, msg agent.Message) {
	req, ok := msg.Content.(ScheduleRequest)
	if !ok {
		_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("scheduling: unsupported content %T", msg.Content))
		return
	}
	_ = ctx.Reply(msg, agent.Inform, s.ScheduleWith(req.Tasks, req.Heuristic))
}
