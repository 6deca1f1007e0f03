package services

import (
	"repro/internal/grid"
	"repro/internal/sim"
)

// SimulateRequest asks the simulation service to study a workload before
// actually running it ("useful for end-users to simulate an experiment
// before actually conducting it"): tasks arrive with the given inter-arrival
// time and are dispatched to the fastest free provider; failed executions
// are retried up to Retries times on the next candidate.
type SimulateRequest struct {
	Tasks        []TaskSpec
	InterArrival float64 // simulated seconds between task arrivals
	Retries      int
	Seed         int64
}

// SimulateReply reports the predicted outcome.
type SimulateReply struct {
	Makespan    float64
	Completed   int
	Failed      int // out of retries, or no up container provides the service
	Retried     int
	BusySeconds float64 // total compute seconds across containers
	Utilization float64 // busy seconds / (makespan * containers)
}

// Simulation is the simulation service, a library called directly: a
// discrete-event what-if model over the grid's metadata. It never touches the real (well, simulated-real)
// grid state; executions are modelled on the DES clock only.
type Simulation struct{ Grid *grid.Grid }

// Simulate runs the what-if model.
func (s *Simulation) Simulate(req SimulateRequest) SimulateReply {
	eng := sim.NewEngine(req.Seed)
	rng := eng.Rand()
	free := make(map[string]bool) // container -> idle?
	var queues []TaskSpec
	reply := SimulateReply{}
	containers := s.Grid.Containers()
	for _, c := range containers {
		free[c.ID] = true
	}

	var tryDispatch func()
	var run func(t TaskSpec, attempt int)
	run = func(t TaskSpec, attempt int) {
		// Pick the fastest free provider.
		var bestC *grid.Container
		var bestN *grid.Node
		for _, c := range containers {
			if !free[c.ID] || !c.Provides(t.Service) {
				continue
			}
			n := s.Grid.Node(c.NodeID)
			if n == nil || !n.Up() {
				continue
			}
			if bestN == nil || n.Hardware.Speed > bestN.Hardware.Speed {
				bestC, bestN = c, n
			}
		}
		if bestC == nil {
			queues = append(queues, t)
			return
		}
		free[bestC.ID] = false
		dur := grid.ExecTime(t.BaseTime, t.DataMB, bestN) * (0.9 + 0.2*rng.Float64())
		failed := rng.Float64() < bestN.FailureRate
		eng.Schedule(dur, "finish:"+t.ID, func() {
			free[bestC.ID] = true
			reply.BusySeconds += dur
			switch {
			case !failed:
				reply.Completed++
				if eng.Now() > reply.Makespan {
					reply.Makespan = eng.Now()
				}
			case attempt < req.Retries:
				reply.Retried++
				run(t, attempt+1)
			default:
				reply.Failed++
			}
			tryDispatch()
		})
	}

	tryDispatch = func() {
		if len(queues) == 0 {
			return
		}
		pending := queues
		queues = nil
		for _, t := range pending {
			run(t, 0)
		}
	}

	for i, t := range req.Tasks {
		t := t
		eng.Schedule(req.InterArrival*float64(i), "arrive:"+t.ID, func() { run(t, 0) })
	}
	eng.RunAll()
	// A task still queued when the events run out had no free, up provider
	// left to wait for: it can never run.
	reply.Failed += len(queues)
	if reply.Makespan > 0 && len(containers) > 0 {
		reply.Utilization = reply.BusySeconds / (reply.Makespan * float64(len(containers)))
	}
	return reply
}
