package services

import (
	"sort"

	"repro/internal/grid"
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

// ScheduleReply carries a schedule and its makespan.
type ScheduleReply struct {
	Assignments []Assignment
	Makespan    float64
}

// Scheduling is the scheduling service of Figure 1, a library called
// directly: list-scheduling heuristics over predicted execution times on the
// containers currently offering each task's service.
type Scheduling struct{ Grid *grid.Grid }

// Heuristic selects the scheduling policy used by Scheduling.ScheduleWith.
type Heuristic int

// Scheduling heuristics. MinMin is the paper-era default; the others exist
// for the ablation benches and for workloads where min-min's bias toward
// short tasks hurts.
const (
	// HeuristicMinMin picks, at each step, the task whose best completion
	// time is smallest and places it there (favours short tasks, keeps
	// machines busy early).
	HeuristicMinMin Heuristic = iota
	// HeuristicMaxMin picks the task whose best completion time is largest
	// (gets long tasks started early; often better makespan under high
	// heterogeneity).
	HeuristicMaxMin
	// HeuristicSufferage picks the task that would suffer most from not
	// getting its best container (largest gap between best and second-best
	// completion times).
	HeuristicSufferage
	// HeuristicFCFS assigns tasks in submission order to their earliest-
	// finishing container (the naive baseline).
	HeuristicFCFS
)

func (h Heuristic) String() string {
	switch h {
	case HeuristicMinMin:
		return "min-min"
	case HeuristicMaxMin:
		return "max-min"
	case HeuristicSufferage:
		return "sufferage"
	case HeuristicFCFS:
		return "fcfs"
	}
	return "unknown"
}

// option is one (task, container) placement with its completion time.
type option struct {
	taskIdx   int
	container string
	node      string
	start     float64
	finish    float64
}

// bestOptions returns, for every remaining task, its best (and second-best
// finish) placement given current container availability. Tasks with no
// provider are absent from the result.
func (s *Scheduling) bestOptions(tasks []TaskSpec, ready map[string]float64) ([]option, []float64) {
	best := make([]option, 0, len(tasks))
	second := make([]float64, 0, len(tasks))
	for i, t := range tasks {
		var b option
		b.taskIdx = -1
		secondBest := -1.0
		for _, c := range s.Grid.ContainersFor(t.Service) {
			n := s.Grid.Node(c.NodeID)
			if n == nil {
				continue
			}
			start := ready[c.ID]
			finish := start + grid.ExecTime(t.BaseTime, t.DataMB, n)
			if b.taskIdx < 0 || finish < b.finish || (finish == b.finish && c.ID < b.container) {
				if b.taskIdx >= 0 {
					secondBest = b.finish
				}
				b = option{taskIdx: i, container: c.ID, node: n.ID, start: start, finish: finish}
			} else if secondBest < 0 || finish < secondBest {
				secondBest = finish
			}
		}
		if b.taskIdx >= 0 {
			best = append(best, b)
			if secondBest < 0 {
				secondBest = b.finish
			}
			second = append(second, secondBest)
		}
	}
	return best, second
}

// ScheduleWith computes a schedule using the given heuristic. Tasks without
// any provider are silently dropped (reported by their absence).
func (s *Scheduling) ScheduleWith(tasks []TaskSpec, h Heuristic) ScheduleReply {
	if h == HeuristicFCFS {
		return s.scheduleFCFS(tasks)
	}
	ready := make(map[string]float64)
	remaining := append([]TaskSpec(nil), tasks...)
	var out ScheduleReply
	for len(remaining) > 0 {
		best, second := s.bestOptions(remaining, ready)
		if len(best) == 0 {
			break
		}
		pick := 0
		switch h {
		case HeuristicMaxMin:
			for i := 1; i < len(best); i++ {
				if best[i].finish > best[pick].finish {
					pick = i
				}
			}
		case HeuristicSufferage:
			bestSuff := second[0] - best[0].finish
			for i := 1; i < len(best); i++ {
				if suff := second[i] - best[i].finish; suff > bestSuff {
					bestSuff = suff
					pick = i
				}
			}
		default: // min-min
			for i := 1; i < len(best); i++ {
				if best[i].finish < best[pick].finish {
					pick = i
				}
			}
		}
		chosen := best[pick]
		t := remaining[chosen.taskIdx]
		ready[chosen.container] = chosen.finish
		out.Assignments = append(out.Assignments, Assignment{
			Task: t.ID, Container: chosen.container, Node: chosen.node,
			Start: chosen.start, Finish: chosen.finish,
		})
		if chosen.finish > out.Makespan {
			out.Makespan = chosen.finish
		}
		remaining = append(remaining[:chosen.taskIdx], remaining[chosen.taskIdx+1:]...)
	}
	sortAssignments(out.Assignments)
	return out
}

func (s *Scheduling) scheduleFCFS(tasks []TaskSpec) ScheduleReply {
	ready := make(map[string]float64)
	var out ScheduleReply
	for _, t := range tasks {
		var b option
		b.taskIdx = -1
		for _, c := range s.Grid.ContainersFor(t.Service) {
			n := s.Grid.Node(c.NodeID)
			if n == nil {
				continue
			}
			start := ready[c.ID]
			finish := start + grid.ExecTime(t.BaseTime, t.DataMB, n)
			if b.taskIdx < 0 || finish < b.finish || (finish == b.finish && c.ID < b.container) {
				b = option{taskIdx: 0, container: c.ID, node: n.ID, start: start, finish: finish}
			}
		}
		if b.taskIdx < 0 {
			continue
		}
		ready[b.container] = b.finish
		out.Assignments = append(out.Assignments, Assignment{
			Task: t.ID, Container: b.container, Node: b.node, Start: b.start, Finish: b.finish,
		})
		if b.finish > out.Makespan {
			out.Makespan = b.finish
		}
	}
	sortAssignments(out.Assignments)
	return out
}

func sortAssignments(as []Assignment) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].Start != as[j].Start {
			return as[i].Start < as[j].Start
		}
		return as[i].Task < as[j].Task
	})
}
