package services

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomFleet draws n candidates with fuzzed hardware and prices.
func randomFleet(rng *rand.Rand, n int) []Candidate {
	fleet := make([]Candidate, n)
	for i := range fleet {
		c := Candidate{
			Container:     fmt.Sprintf("c-%03d", i),
			Node:          fmt.Sprintf("n-%03d", i),
			Domain:        fmt.Sprintf("d-%d", rng.Intn(5)),
			Speed:         0.25 + rng.Float64()*4,
			Cost:          rng.Float64() * 10,
			BandwidthMbps: 50 + rng.Float64()*2000,
			LatencyUs:     rng.Float64() * 5000,
		}
		if rng.Intn(8) == 0 {
			c.BandwidthMbps = 0 // unknown bandwidth: transfers assumed free
		}
		fleet[i] = c
	}
	return fleet
}

// randomInputs fuzzes the Size/Location shape of an activity's bound
// conditions: empty, local, remote, zero-size, and unknown-location refs.
func randomInputs(rng *rand.Rand, fleet []Candidate) []DataRef {
	inputs := make([]DataRef, rng.Intn(5))
	for i := range inputs {
		ref := DataRef{SizeMB: rng.Float64() * 1024}
		switch rng.Intn(4) {
		case 0: // unknown location
		case 1:
			ref.Location = fleet[rng.Intn(len(fleet))].Node
		case 2:
			ref.Location = fmt.Sprintf("d-%d", rng.Intn(5))
		case 3:
			ref.Location = "elsewhere"
		}
		if rng.Intn(6) == 0 {
			ref.SizeMB = 0
		}
		inputs[i] = ref
	}
	return inputs
}

// TestRankCostAwareNeverDominated is the scorer's core property: across
// fuzzed fleets and Size/Location inputs, the chosen head of the ranking is
// never strictly dominated — no other feasible candidate is strictly better
// on BOTH estimated cost and ETA. Table-driven over the scenarios the
// coordinator actually hits (unconstrained, deadlined, urgent, all-infeasible).
func TestRankCostAwareNeverDominated(t *testing.T) {
	cases := []struct {
		name     string
		deadline func(rng *rand.Rand) float64 // remaining deadline draw
		urgent   bool
	}{
		{"unconstrained-cheapest", func(*rand.Rand) float64 { return 0 }, false},
		{"deadlined-cheapest", func(rng *rand.Rand) float64 { return 0.5 + rng.Float64()*6 }, false},
		{"deadlined-urgent", func(rng *rand.Rand) float64 { return 0.5 + rng.Float64()*6 }, true},
		{"tight-deadline-urgent", func(rng *rand.Rand) float64 { return 0.01 + rng.Float64()*0.2 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			for trial := 0; trial < 500; trial++ {
				fleet := randomFleet(rng, 1+rng.Intn(24))
				inputs := randomInputs(rng, fleet)
				baseTime := 0.05 + rng.Float64()*10
				deadline := tc.deadline(rng)
				perf := map[string]PerfStats{}
				for _, c := range fleet {
					if rng.Intn(3) == 0 {
						perf[c.Node] = PerfStats{
							Runs:         1 + rng.Intn(10),
							SuccessRate:  rng.Float64(),
							MeanDuration: rng.Float64() * 8,
							MeanCost:     rng.Float64() * 20,
						}
					}
				}
				scored := ScoreCandidates(fleet, baseTime, inputs, func(node string) PerfStats { return perf[node] }, deadline)
				ranked := RankCostAware(scored, tc.urgent)
				if len(ranked) != len(fleet) {
					t.Fatalf("trial %d: ranking changed candidate count: %d != %d",
						trial, len(ranked), len(fleet))
				}
				head := ranked[0]
				for _, other := range ranked[1:] {
					if !other.Feasible {
						continue
					}
					if head.Feasible &&
						other.EstCost < head.EstCost && other.ETA < head.ETA {
						t.Fatalf("trial %d: chosen %s (cost %.4f eta %.4f) dominated by %s (cost %.4f eta %.4f)",
							trial, head.Container, head.EstCost, head.ETA,
							other.Container, other.EstCost, other.ETA)
					}
					if !head.Feasible {
						t.Fatalf("trial %d: infeasible %s ranked ahead of feasible %s",
							trial, head.Container, other.Container)
					}
				}
			}
		})
	}
}

// TestScoreCandidatesTransfer pins the transfer-time arithmetic: remote data
// pays SizeMB*8/BandwidthMbps, local/domain/unknown data is free.
func TestScoreCandidatesTransfer(t *testing.T) {
	cand := Candidate{
		Container: "c", Node: "n1", Domain: "d1",
		Speed: 2, Cost: 3, BandwidthMbps: 100, LatencyUs: 0,
	}
	baseTime := 4.0
	cases := []struct {
		name    string
		inputs  []DataRef
		wantETA float64
	}{
		{"no-inputs", nil, 2},
		{"local-node", []DataRef{{SizeMB: 500, Location: "n1"}}, 2},
		{"local-domain", []DataRef{{SizeMB: 500, Location: "d1"}}, 2},
		{"unknown-location", []DataRef{{SizeMB: 500}}, 2},
		{"remote", []DataRef{{SizeMB: 100, Location: "far"}}, 2 + 100*8/100.0},
		{"two-remote", []DataRef{
			{SizeMB: 100, Location: "far"}, {SizeMB: 50, Location: "father"},
		}, 2 + 150*8/100.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scored := ScoreCandidates([]Candidate{cand}, baseTime, tc.inputs, nil, 0)
			if got := scored[0].ETA; got != tc.wantETA {
				t.Errorf("ETA = %v, want %v", got, tc.wantETA)
			}
			if got, want := scored[0].EstCost, tc.wantETA*cand.Cost; got != want {
				t.Errorf("EstCost = %v, want %v", got, want)
			}
		})
	}
}

// TestScoreCandidatesHistory pins the historical-stats blend: mean duration
// averages into the ETA, and ≥3 runs of flaky history inflate it by the
// (floored) success rate.
func TestScoreCandidatesHistory(t *testing.T) {
	cand := Candidate{Container: "c", Node: "n1", Speed: 1, Cost: 1}
	base := 2.0
	for _, tc := range []struct {
		name string
		perf PerfStats
		want float64
	}{
		{"no-history", PerfStats{}, 2},
		{"blend-mean", PerfStats{Runs: 1, SuccessRate: 1, MeanDuration: 6}, 4},
		{"flaky-inflates", PerfStats{Runs: 5, SuccessRate: 0.5, MeanDuration: 6}, 8},
		{"success-floor", PerfStats{Runs: 5, SuccessRate: 0.01, MeanDuration: 6}, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perf := map[string]PerfStats{}
			if tc.perf.Runs > 0 {
				perf["n1"] = tc.perf
			}
			scored := ScoreCandidates([]Candidate{cand}, base, nil, func(node string) PerfStats { return perf[node] }, 0)
			if got := scored[0].ETA; got != tc.want {
				t.Errorf("ETA = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestRankCostAwareModes pins the two ranking modes on a hand-built fleet:
// cheapest feasible first normally, fastest feasible first when urgent, and
// infeasible candidates always last.
func TestRankCostAwareModes(t *testing.T) {
	mk := func(id string, eta, cost float64, feasible bool) ScoredCandidate {
		return ScoredCandidate{
			Candidate: Candidate{Container: id},
			ETA:       eta, EstCost: cost, Feasible: feasible,
		}
	}
	scored := []ScoredCandidate{
		mk("slow-cheap", 10, 1, true),
		mk("fast-dear", 1, 10, true),
		mk("late", 0.5, 0.5, false),
	}
	if got := RankCostAware(scored, false)[0].Container; got != "slow-cheap" {
		t.Errorf("normal mode picked %s, want slow-cheap", got)
	}
	if got := RankCostAware(scored, true)[0].Container; got != "fast-dear" {
		t.Errorf("urgent mode picked %s, want fast-dear", got)
	}
	for _, urgent := range []bool{false, true} {
		ranked := RankCostAware(scored, urgent)
		if last := ranked[len(ranked)-1]; last.Container != "late" {
			t.Errorf("urgent=%v: infeasible candidate not ranked last (got %s)", urgent, last.Container)
		}
	}
}

// costMixFleet draws a heterogeneous fleet: the first half is cheap and slow
// (low speed, low cost-per-second, modest bandwidth), the second half fast
// and expensive.
func costMixFleet(rng *rand.Rand, n int) []Candidate {
	fleet := make([]Candidate, n)
	for i := range fleet {
		c := Candidate{
			Container: fmt.Sprintf("cm-cont-%02d", i),
			Node:      fmt.Sprintf("cm-node-%02d", i),
			Domain:    fmt.Sprintf("dom-%d", i%4),
			LatencyUs: 100 + rng.Float64()*900,
		}
		if i < n/2 {
			c.Speed = 0.5 + rng.Float64()*0.7 // slow
			c.Cost = 0.5 + rng.Float64()      // cheap
			c.BandwidthMbps = 200 + rng.Float64()*300
		} else {
			c.Speed = 2 + rng.Float64()*2 // fast
			c.Cost = 4 + rng.Float64()*6  // expensive
			c.BandwidthMbps = 800 + rng.Float64()*1200
		}
		fleet[i] = c
	}
	return fleet
}

// TestRankCostAwareTenantProfiles: two tenant profiles with opposite
// constraints share one 16-node fleet and the same tasks, and every dispatch
// goes through ScoreCandidates and RankCostAware. The patient, poor "batch"
// profile (deadline 8× base time, budget 2.5 a task, not urgent) must finish
// inside its budget, which picking fast-expensive nodes would blow; the
// rushed, rich "rush" profile (deadline 4× base time, budget 60 a task,
// urgent) must meet at least 95 % of its deadlines, and pays more per task
// than batch for it. Its deadline admits batch's cheap slow picks, so only
// urgency sends it to the fast nodes: not urgent, it would spend what batch
// spends.
func TestRankCostAwareTenantProfiles(t *testing.T) {
	const tasks = 200
	profiles := []struct {
		urgent                 bool
		deadlineMul, budgetPer float64
	}{
		{false, 8, 2.5}, // batch
		{true, 4, 60},   // rush
	}
	for _, seed := range []int64{42, 7} {
		rng := rand.New(rand.NewSource(seed))
		fleet := costMixFleet(rng, 16)
		locations := []string{""} // unknown location: treated as local
		for _, c := range fleet {
			locations = append(locations, c.Node)
		}
		var spent [2]float64
		var met [2]int
		for i := 0; i < tasks; i++ {
			baseTime := 0.5 + rng.Float64()*2.5
			inputs := make([]DataRef, rng.Intn(3))
			for j := range inputs {
				inputs[j] = DataRef{SizeMB: rng.Float64() * 48, Location: locations[rng.Intn(len(locations))]}
			}
			for p, prof := range profiles {
				deadline := baseTime * prof.deadlineMul
				pick := RankCostAware(ScoreCandidates(fleet, baseTime, inputs, nil, deadline), prof.urgent)[0]
				spent[p] += pick.EstCost
				if pick.ETA <= deadline {
					met[p]++
				}
			}
		}
		if budget := profiles[0].budgetPer * tasks; spent[0] > budget {
			t.Errorf("seed %d: batch spent %.2f of budget %.2f", seed, spent[0], budget)
		}
		if rate := float64(met[1]) / tasks; rate < 0.95 {
			t.Errorf("seed %d: rush met %.3f of its deadlines, want >= 0.95", seed, rate)
		}
		// Both profiles dispatch the same tasks, so comparing totals
		// compares mean costs.
		if spent[1] <= spent[0] {
			t.Errorf("seed %d: rush mean cost %.3f should exceed batch's %.3f", seed, spent[1]/tasks, spent[0]/tasks)
		}
	}
}
