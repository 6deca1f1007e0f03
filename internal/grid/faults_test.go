package grid

import (
	"strings"
	"testing"
)

// faultGrid builds a two-node grid with zero advertised failure rates, so
// every failure observed in these tests is an injected one.
func faultGrid(t *testing.T) *Grid {
	t.Helper()
	g := New(42)
	for _, id := range []string{"n1", "n2"} {
		if err := g.AddNode(&Node{
			ID: id, Domain: "test",
			Hardware:   Hardware{Type: "PC-cluster", Speed: 1, BandwidthMbps: 1000},
			CostPerSec: 0.01,
		}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddContainer(&Container{ID: "ac-" + id, NodeID: id, Services: []string{"S"}}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestFaultSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec *FaultSpec
		ok   bool
	}{
		{"nil is valid", nil, true},
		{"zero value", &FaultSpec{}, true},
		{"full rates", &FaultSpec{FailureRate: 1, CrashRate: 1, SlowFactor: 2}, true},
		{"negative failure rate", &FaultSpec{FailureRate: -0.1}, false},
		{"failure rate above 1", &FaultSpec{FailureRate: 1.1}, false},
		{"crash rate above 1", &FaultSpec{CrashRate: 2}, false},
		{"slow factor below 1", &FaultSpec{SlowFactor: 0.5}, false},
		{"slow factor zero ok", &FaultSpec{SlowFactor: 0}, true},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestSetFaultsRejectsUnknownNode(t *testing.T) {
	g := faultGrid(t)
	err := g.SetFaults(&FaultSpec{Nodes: []string{"nope"}, FailureRate: 0.5})
	if err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Fatalf("SetFaults with unknown node: %v", err)
	}
	if err := g.SetFaults(&FaultSpec{Nodes: []string{"n1"}, FailureRate: 0.5}); err != nil {
		t.Fatalf("SetFaults: %v", err)
	}
	got := g.Faults()
	if got == nil || got.FailureRate != 0.5 || len(got.Nodes) != 1 || got.Nodes[0] != "n1" {
		t.Fatalf("Faults() = %+v", got)
	}
	if err := g.SetFaults(nil); err != nil {
		t.Fatalf("clear faults: %v", err)
	}
	if g.Faults() != nil {
		t.Fatal("faults not cleared")
	}
}

// TestFaultInjectionDeterministic runs the same execution sequence on two
// grids with the same seeds and expects identical outcomes, and on a third
// grid with a different fault seed expects a different failure pattern.
func TestFaultInjectionDeterministic(t *testing.T) {
	outcomes := func(faultSeed int64) string {
		g := faultGrid(t)
		if err := g.SetFaults(&FaultSpec{Seed: faultSeed, FailureRate: 0.4}); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for i := 0; i < 40; i++ {
			_, err := g.Execute("ac-n1", "S", 10, 0)
			if err != nil {
				sb.WriteByte('F')
			} else {
				sb.WriteByte('.')
			}
		}
		return sb.String()
	}
	a, b := outcomes(7), outcomes(7)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "F") || !strings.Contains(a, ".") {
		t.Fatalf("outcome pattern not mixed at rate 0.4: %s", a)
	}
	if c := outcomes(8); c == a {
		t.Fatalf("different fault seed produced identical pattern: %s", c)
	}
}

// TestFaultStreamsPerNode checks that injection on one node is independent
// of traffic on another: interleaving executions on n2 must not change n1's
// injected outcome sequence.
func TestFaultStreamsPerNode(t *testing.T) {
	run := func(interleave bool) string {
		g := faultGrid(t)
		if err := g.SetFaults(&FaultSpec{Seed: 11, FailureRate: 0.5}); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for i := 0; i < 30; i++ {
			if interleave {
				_, _ = g.Execute("ac-n2", "S", 10, 0)
			}
			if _, err := g.Execute("ac-n1", "S", 10, 0); err != nil {
				sb.WriteByte('F')
			} else {
				sb.WriteByte('.')
			}
		}
		return sb.String()
	}
	if plain, mixed := run(false), run(true); plain != mixed {
		t.Fatalf("n1 outcomes depend on n2 traffic:\n%s\n%s", plain, mixed)
	}
}

func TestFaultSlowFactor(t *testing.T) {
	base := faultGrid(t)
	ex1, err := base.Execute("ac-n1", "S", 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow := faultGrid(t)
	if err := slow.SetFaults(&FaultSpec{Seed: 1, SlowFactor: 3}); err != nil {
		t.Fatal(err)
	}
	ex2, err := slow.Execute("ac-n1", "S", 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ex2.Duration, ex1.Duration*3; got < want*0.999 || got > want*1.001 {
		t.Fatalf("slow duration = %g, want %g", got, want)
	}
}

// TestFaultCrashTakesNodeDown drives executions at FailureRate 1 and
// CrashRate 1: the very first execution must fail as a fault, crash the
// node, and leave the node down for later calls.
func TestFaultCrashTakesNodeDown(t *testing.T) {
	g := faultGrid(t)
	if err := g.SetFaults(&FaultSpec{Seed: 3, Nodes: []string{"n1"}, FailureRate: 1, CrashRate: 1}); err != nil {
		t.Fatal(err)
	}
	ex, err := g.Execute("ac-n1", "S", 10, 0)
	if err == nil || !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("want crash error, got %v", err)
	}
	if ex.OK || !ex.Fault {
		t.Fatalf("execution record = %+v, want failed fault", ex)
	}
	if g.Node("n1").Up() {
		t.Fatal("node still up after crash")
	}
	// Further executions fail fast on the downed node.
	if _, err := g.Execute("ac-n1", "S", 10, 0); err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("want node-down error, got %v", err)
	}
	// The untargeted node is unaffected.
	if _, err := g.Execute("ac-n2", "S", 10, 0); err != nil {
		t.Fatalf("n2 execution failed: %v", err)
	}
}
