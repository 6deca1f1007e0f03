package services

import "sort"

// Cost- and data-aware candidate scoring (ROADMAP item 5). The scorer turns
// the raw matchmaking candidate list into per-candidate (ETA, cost) estimates
// that fold in node hardware, historical performance stats, and the transfer
// time of the activity's bound input data, then ranks the list so the head is
// the cheapest candidate that still meets the deadline (or the fastest one,
// under deadline pressure). The functions are pure and deterministic so the
// coordinator, the load simulator, property tests, and benchmarks all share
// one implementation.

// DataRef describes one bound input condition of an activity: its size and
// where it currently lives. Transfers are free when the data is already on
// the candidate's node or inside its administrative domain.
type DataRef struct {
	SizeMB   float64
	Location string
}

// ScoredCandidate pairs a candidate with its constraint-aware estimates.
type ScoredCandidate struct {
	Candidate

	// ETA is the estimated run time in simulated seconds: compute time from
	// hardware speed, plus transfer time for remote inputs, plus dispatch
	// latency, blended with the node's historical mean duration and inflated
	// by its failure history.
	ETA float64

	// EstCost is the estimated spend for the run: ETA × CostPerSec.
	EstCost float64

	// Feasible reports whether ETA fits in the remaining deadline (always
	// true when no deadline constrains the pick).
	Feasible bool
}

// transferTime estimates seconds to stage inputs onto the candidate's node.
func transferTime(c *Candidate, inputs []DataRef) float64 {
	var secs float64
	for _, in := range inputs {
		if in.SizeMB <= 0 {
			continue
		}
		if in.Location == "" || in.Location == c.Node || in.Location == c.Domain {
			continue // already local (or location unknown — assume local)
		}
		if c.BandwidthMbps > 0 {
			secs += in.SizeMB * 8 / c.BandwidthMbps
		}
	}
	return secs
}

// ScoreCandidates estimates ETA and cost for every candidate. baseTime is
// the service's nominal duration on a speed-1 node; inputs describe the
// activity's bound conditions; perf returns a node's historical stats (nil
// for none); remainingDeadline constrains feasibility (<= 0 means
// unconstrained). The returned slice is index-aligned with cands.
func ScoreCandidates(cands []Candidate, baseTime float64, inputs []DataRef, perf func(node string) PerfStats, remainingDeadline float64) []ScoredCandidate {
	out := make([]ScoredCandidate, len(cands))
	for i, c := range cands {
		speed := c.Speed
		if speed <= 0 {
			speed = 1
		}
		eta := baseTime/speed + transferTime(&c, inputs) + c.LatencyUs/1e6
		var st PerfStats
		if perf != nil {
			st = perf(c.Node)
		}
		if st.Runs > 0 {
			if st.MeanDuration > 0 {
				eta = (eta + st.MeanDuration) / 2
			}
			if st.Runs >= 3 {
				sr := st.SuccessRate
				if sr < 0.25 {
					sr = 0.25
				}
				eta /= sr // expected retries on flaky nodes
			}
		}
		cost := eta * c.Cost
		out[i] = ScoredCandidate{
			Candidate: c,
			ETA:       eta,
			EstCost:   cost,
			Feasible:  remainingDeadline <= 0 || eta <= remainingDeadline,
		}
	}
	return out
}

// RankCostAware orders scored candidates for dispatch: feasible ones first —
// cheapest-first normally, fastest-first when urgent (deadline pressure) —
// then infeasible ones by ETA so a constrained case still degrades to the
// least-bad node. Ties break on the secondary axis and then container ID, so
// the head of the list is a lexicographic minimum: no other feasible
// candidate is strictly better on both cost and ETA.
func RankCostAware(scored []ScoredCandidate, urgent bool) []ScoredCandidate {
	out := make([]ScoredCandidate, len(scored))
	copy(out, scored)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Feasible != b.Feasible {
			return a.Feasible
		}
		p1, p2 := a.EstCost, b.EstCost
		s1, s2 := a.ETA, b.ETA
		if urgent || !a.Feasible {
			p1, p2, s1, s2 = s1, s2, p1, p2
		}
		if p1 != p2 {
			return p1 < p2
		}
		if s1 != s2 {
			return s1 < s2
		}
		return a.Container < b.Container
	})
	return out
}
