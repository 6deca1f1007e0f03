package planner

import (
	"context"
	"testing"

	"repro/internal/virolab"
)

// TestAblations is EXPERIMENTS' ablation table: each row is Table 1 with one
// design choice changed, planned on the virolab problem over the same seeds.
// It asserts only what the paper claims, that the Table-1 row reaches the
// goal in every run; `-v` logs the Table 2 columns of every row.
func TestAblations(t *testing.T) {
	const runs = 10
	rows := []struct {
		name string
		set  func(*Params)
	}{
		{"Table 1", func(*Params) {}},
		{"Smax 10", func(p *Params) { p.Smax = 10 }},
		{"Smax 20", func(p *Params) { p.Smax = 20 }},
		{"Smax 80", func(p *Params) { p.Smax = 80 }},
		{"mutation only", func(p *Params) { p.CrossoverRate, p.MutationRate = 0, 0.01 }},
		{"crossover only", func(p *Params) { p.MutationRate = 0 }},
		{"roulette", func(p *Params) { p.Selection = SelectRoulette }},
		{"MaxFlows 1", func(p *Params) { p.MaxFlows = 1 }},
		{"MaxFlows 4", func(p *Params) { p.MaxFlows = 4 }},
	}
	t.Logf("%-14s %7s %5s %5s %5s %9s", "row", "fitness", "fv", "fg", "size", "fg=1 runs")
	for _, row := range rows {
		p := DefaultParams()
		row.set(&p)
		results, err := RunManyContext(context.Background(), virolab.Problem(), p, runs)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		s := Summarize(results)
		t.Logf("%-14s %7.3f %5.3f %5.3f %5.1f %7d/%d", row.name, s.AvgFitness, s.AvgValidity, s.AvgGoalFitness, s.AvgSize, s.PerfectGoal, runs)
		if row.name == "Table 1" && s.PerfectGoal != runs {
			t.Errorf("Table 1: fg = 1 in %d/%d runs, want every run (paper: 10/10)", s.PerfectGoal, runs)
		}
	}
}
