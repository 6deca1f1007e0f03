package services

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/agent"
	"repro/internal/grid"
	"repro/internal/telemetry"
)

// MatchRequest asks for resources matching a set of conditions, the
// spot-market lookup of Section 2 ("locate resources in a spot market,
// subject to a wide range of conditions").
type MatchRequest struct {
	Service         string
	MinSpeed        float64  // 0 = any
	MaxCostPerSec   float64  // 0 = any
	MaxLatencyUs    float64  // 0 = any; fine-grain parallel tasks set this
	RequireSoftware []string // package names that must be installed
	Domain          string   // restrict to one administrative domain
}

// Candidate is one matched container with its ranking score (higher is
// better: fast, reliable, cheap).
type Candidate struct {
	Container string
	Node      string
	Speed     float64
	Cost      float64
	Score     float64

	// Domain, BandwidthMbps, and LatencyUs describe the hosting node so
	// cost-aware scoring can estimate data-transfer time without another
	// grid lookup.
	Domain        string
	BandwidthMbps float64
	LatencyUs     float64
}

// MatchReply lists candidates best-first.
type MatchReply struct{ Candidates []Candidate }

// Matchmaking is the matchmaking service agent. Unlike the brokerage's
// best-effort snapshot, matchmaking reads the live grid, so its answers
// reflect current node status. The ranking of a request that names only a
// service — what every dispatch asks for — is kept beside the grid version it
// was computed at and recomputed only when that version moved; callers share
// the returned slice and must not write to it.
type Matchmaking struct {
	Grid *grid.Grid

	// Telemetry, when set, counts lookups and whether they produced any
	// candidate (hits) or none (misses).
	Telemetry *telemetry.Registry

	instruments               sync.Once
	mRequests, mHits, mMisses *telemetry.Counter

	mu      sync.Mutex
	version uint64                 // grid version ranked was computed at
	ranked  map[string][]Candidate // service -> unfiltered ranking
}

// Match evaluates a request against the live grid.
func (s *Matchmaking) Match(req MatchRequest) []Candidate {
	var out []Candidate
	if req.MinSpeed == 0 && req.MaxCostPerSec == 0 && req.MaxLatencyUs == 0 &&
		len(req.RequireSoftware) == 0 && req.Domain == "" {
		out = s.ranking(req.Service)
	} else {
		out = s.match(req)
	}
	if s.Telemetry != nil {
		s.instruments.Do(func() {
			s.mRequests = s.Telemetry.Counter("matchmaking.requests")
			s.mHits = s.Telemetry.Counter("matchmaking.hits")
			s.mMisses = s.Telemetry.Counter("matchmaking.misses")
		})
		s.mRequests.Inc()
		if len(out) > 0 {
			s.mHits.Inc()
		} else {
			s.mMisses.Inc()
		}
	}
	return out
}

// ranking returns the unfiltered ranking for one service at the current grid
// version. The version is read before the grid is, under s.mu: a change that
// lands while match runs leaves the entry stamped older than the grid, and
// the next lookup recomputes it.
func (s *Matchmaking) ranking(service string) []Candidate {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.Grid.Version(); s.ranked == nil || v != s.version {
		s.ranked, s.version = make(map[string][]Candidate), v
	}
	out, ok := s.ranked[service]
	if !ok {
		out = s.match(MatchRequest{Service: service})
		s.ranked[service] = out
	}
	return out
}

// match ranks the live grid's containers for one request.
func (s *Matchmaking) match(req MatchRequest) []Candidate {
	var out []Candidate
	for _, c := range s.Grid.ContainersFor(req.Service) {
		n := s.Grid.Node(c.NodeID)
		if n == nil {
			continue
		}
		hw := n.Hardware
		if req.MinSpeed > 0 && hw.Speed < req.MinSpeed {
			continue
		}
		if req.MaxCostPerSec > 0 && n.CostPerSec > req.MaxCostPerSec {
			continue
		}
		if req.MaxLatencyUs > 0 && hw.LatencyUs > req.MaxLatencyUs {
			continue
		}
		if req.Domain != "" && n.Domain != req.Domain {
			continue
		}
		haveAll := true
		for _, sw := range req.RequireSoftware {
			if !n.HasSoftware(sw) {
				haveAll = false
				break
			}
		}
		if !haveAll {
			continue
		}
		// Score: speed, discounted by failure rate, per unit cost.
		cost := n.CostPerSec
		if cost <= 0 {
			cost = 1e-6
		}
		score := hw.Speed * (1 - n.FailureRate) / cost
		out = append(out, Candidate{
			Container:     c.ID,
			Node:          n.ID,
			Speed:         hw.Speed,
			Cost:          n.CostPerSec,
			Score:         score,
			Domain:        n.Domain,
			BandwidthMbps: hw.BandwidthMbps,
			LatencyUs:     hw.LatencyUs,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Container < out[j].Container
	})
	return out
}

// HandleMessage implements agent.Handler.
func (s *Matchmaking) HandleMessage(ctx *agent.Context, msg agent.Message) {
	req, ok := msg.Content.(MatchRequest)
	if !ok {
		_ = ctx.Reply(msg, agent.Refuse, fmt.Sprintf("matchmaking: unsupported content %T", msg.Content))
		return
	}
	_ = ctx.Reply(msg, agent.Inform, MatchReply{Candidates: s.Match(req)})
}
