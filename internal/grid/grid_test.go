package grid

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func twoNodeGrid(t *testing.T) *Grid {
	t.Helper()
	g := New(1)
	if err := g.AddNode(&Node{
		ID: "n1", Domain: "a.edu",
		Hardware:   Hardware{Type: "PC-cluster", Speed: 1, BandwidthMbps: 100, LatencyUs: 100},
		CostPerSec: 0.01,
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(&Node{
		ID: "n2", Domain: "b.gov",
		Hardware:   Hardware{Type: "SMP", Speed: 2, BandwidthMbps: 1000, LatencyUs: 10},
		CostPerSec: 0.05,
		Software:   []Software{{Name: "P3DR", Version: "2"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddContainer(&Container{ID: "c1", NodeID: "n1", Services: []string{"POD", "PSF"}}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddContainer(&Container{ID: "c2", NodeID: "n2", Services: []string{"P3DR", "POR"}}); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRegistration(t *testing.T) {
	g := twoNodeGrid(t)
	if g.Node("n1") == nil || g.Container("c2") == nil {
		t.Fatal("lookups failed")
	}
	if g.Node("nx") != nil || g.Container("cx") != nil {
		t.Fatal("phantom lookups")
	}
	for _, err := range []error{
		g.AddNode(&Node{ID: "n1", Hardware: Hardware{Speed: 1}}),
		g.AddNode(&Node{ID: "", Hardware: Hardware{Speed: 1}}),
		g.AddNode(&Node{ID: "n3"}), // zero speed
		g.AddContainer(&Container{ID: "c1", NodeID: "n1"}),
		g.AddContainer(&Container{ID: "", NodeID: "n1"}),
		g.AddContainer(&Container{ID: "c3", NodeID: "ghost"}),
	} {
		if err == nil {
			t.Error("invalid registration accepted")
		}
	}
	if len(g.Nodes()) != 2 || len(g.Containers()) != 2 {
		t.Error("listing sizes wrong")
	}
	if g.Nodes()[0].ID != "n1" || g.Containers()[1].ID != "c2" {
		t.Error("listings not sorted")
	}
}

func TestNodeHelpers(t *testing.T) {
	g := twoNodeGrid(t)
	n2 := g.Node("n2")
	if !n2.HasSoftware("P3DR") || n2.HasSoftware("POD") {
		t.Error("HasSoftware mismatch")
	}
	if !n2.Up() {
		t.Error("new node should be up")
	}
	c2 := g.Container("c2")
	if !c2.Provides("P3DR") || c2.Provides("PSF") {
		t.Error("Provides mismatch")
	}
}

func TestContainersForAndFailures(t *testing.T) {
	g := twoNodeGrid(t)
	if cs := g.ContainersFor("P3DR"); len(cs) != 1 || cs[0].ID != "c2" {
		t.Fatalf("ContainersFor(P3DR) = %v", cs)
	}
	if err := g.SetNodeUp("n2", false); err != nil {
		t.Fatal(err)
	}
	if cs := g.ContainersFor("P3DR"); len(cs) != 0 {
		t.Errorf("failed node still offers services: %v", cs)
	}
	if err := g.SetNodeUp("n2", true); err != nil {
		t.Fatal(err)
	}
	if cs := g.ContainersFor("P3DR"); len(cs) != 1 {
		t.Error("repair did not restore services")
	}
	if err := g.SetNodeUp("ghost", true); err == nil {
		t.Error("SetNodeUp on ghost accepted")
	}
	if cs := g.ContainersFor("NOPE"); len(cs) != 0 {
		t.Errorf("unknown service has providers: %v", cs)
	}
}

func TestExecTimeModel(t *testing.T) {
	slow := &Node{Hardware: Hardware{Speed: 1, BandwidthMbps: 100, LatencyUs: 100}}
	fast := &Node{Hardware: Hardware{Speed: 4, BandwidthMbps: 10000, LatencyUs: 1}}
	tSlow := ExecTime(100, 1000, slow)
	tFast := ExecTime(100, 1000, fast)
	if tFast >= tSlow {
		t.Errorf("fast node slower: %g >= %g", tFast, tSlow)
	}
	// 100s compute + 1000MB over 100Mbps = 80s transfer.
	if tSlow < 179 || tSlow > 181 {
		t.Errorf("tSlow = %g, want ~180", tSlow)
	}
	// Zero-bandwidth nodes pay no modelled transfer cost.
	if got := ExecTime(10, 100, &Node{Hardware: Hardware{Speed: 2}}); got != 5 {
		t.Errorf("no-network ExecTime = %g, want 5", got)
	}
}

func TestExecute(t *testing.T) {
	g := twoNodeGrid(t)
	ex, err := g.Execute("c2", "P3DR", 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Node != "n2" || ex.Service != "P3DR" || !ex.OK {
		t.Errorf("execution = %+v", ex)
	}
	// Duration: ~100/2=50s within +/-10% jitter plus small transfer.
	if ex.Duration < 44 || ex.Duration > 56 {
		t.Errorf("duration = %g, want ~50", ex.Duration)
	}
	if ex.Cost <= 0 {
		t.Error("cost not accounted")
	}

	if _, err := g.Execute("cx", "P3DR", 1, 0); err == nil {
		t.Error("unknown container accepted")
	}
	if _, err := g.Execute("c2", "PSF", 1, 0); err == nil {
		t.Error("unprovided service accepted")
	}
	_ = g.SetNodeUp("n2", false)
	if _, err := g.Execute("c2", "P3DR", 1, 0); err == nil || !strings.Contains(err.Error(), "down") {
		t.Errorf("down-node execute = %v", err)
	}
}

func TestExecuteFailureSampling(t *testing.T) {
	g := New(7)
	_ = g.AddNode(&Node{ID: "flaky", Hardware: Hardware{Speed: 1}, FailureRate: 0.5})
	_ = g.AddContainer(&Container{ID: "c", NodeID: "flaky", Services: []string{"S"}})
	fails := 0
	for i := 0; i < 200; i++ {
		if _, err := g.Execute("c", "S", 1, 0); err != nil {
			fails++
		}
	}
	if fails < 60 || fails > 140 {
		t.Errorf("failures = %d/200, want ~100 at rate 0.5", fails)
	}
}

func TestEquivalenceClasses(t *testing.T) {
	g := twoNodeGrid(t)
	_ = g.AddNode(&Node{ID: "n3", Hardware: Hardware{Type: "PC-cluster", Speed: 1.4}})
	classes := g.EquivalenceClasses()
	if len(classes) != 2 {
		t.Fatalf("classes = %v", classes)
	}
	if classes[0].Key != "PC-cluster/speed=1" || len(classes[0].Nodes) != 2 {
		t.Errorf("first class = %+v", classes[0])
	}
	_ = g.SetNodeUp("n3", false)
	classes = g.EquivalenceClasses()
	if len(classes[0].Nodes) != 1 {
		t.Error("down node still grouped")
	}
}

func TestSynthetic(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	g := Synthetic(cfg)
	wantNodes := cfg.Clusters + cfg.SMPs + cfg.Supercomputers
	if len(g.Nodes()) != wantNodes {
		t.Fatalf("nodes = %d, want %d", len(g.Nodes()), wantNodes)
	}
	if len(g.Containers()) != wantNodes {
		t.Fatalf("containers = %d, want %d", len(g.Containers()), wantNodes)
	}
	// Every service must be available somewhere.
	for _, s := range cfg.Services {
		if len(g.ContainersFor(s)) == 0 {
			t.Errorf("service %s has no providers", s)
		}
	}
	// Heterogeneity: more than one hardware type present.
	types := map[string]bool{}
	for _, n := range g.Nodes() {
		types[n.Hardware.Type] = true
	}
	if len(types) < 3 {
		t.Errorf("hardware types = %v, want 3", types)
	}
	// Determinism.
	g2 := Synthetic(cfg)
	if len(g2.Nodes()) != len(g.Nodes()) || g2.Nodes()[0].Hardware.Speed != g.Nodes()[0].Hardware.Speed {
		t.Error("synthetic grid not deterministic")
	}
}

func BenchmarkExecute(b *testing.B) {
	g := Synthetic(DefaultSyntheticConfig())
	cs := g.ContainersFor("P3DR")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.Execute(cs[i%len(cs)].ID, "P3DR", 100, 10)
	}
}

// TestUpCountMatchesScan races every writer of a node's up flag — SetNodeUp,
// an injected crash inside Execute, AddNode — against UpCount readers, and
// after each round checks the lock-free count against a scan of the nodes.
func TestUpCountMatchesScan(t *testing.T) {
	g := New(7)
	addNode := func(i int) {
		id := fmt.Sprintf("n%03d", i)
		if err := g.AddNode(&Node{ID: id, Hardware: Hardware{Speed: 1}}); err != nil {
			t.Error(err)
			return
		}
		if err := g.AddContainer(&Container{ID: "ac-" + id, NodeID: id, Services: []string{"S"}}); err != nil {
			t.Error(err)
		}
	}
	nodes := 8
	for i := 0; i < nodes; i++ {
		addNode(i)
	}
	if err := g.SetFaults(&FaultSpec{Seed: 1, FailureRate: 0.5, CrashRate: 0.5}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var crashes atomic.Int32
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			seed, known := rng.Int63(), nodes
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for op := 0; op < 50; op++ {
					id := fmt.Sprintf("n%03d", r.Intn(known))
					switch r.Intn(3) {
					case 0:
						_ = g.SetNodeUp(id, r.Intn(2) == 0)
					case 1:
						if _, err := g.Execute("ac-"+id, "S", 1, 0); err != nil && strings.Contains(err.Error(), "crashed") {
							crashes.Add(1)
						}
					default:
						if n := g.UpCount(); n < 0 || n > len(g.Nodes()) {
							t.Errorf("UpCount %d out of range", n)
						}
					}
				}
			}()
		}
		wg.Add(1)
		go func(first int) {
			defer wg.Done()
			addNode(first)
			addNode(first + 1)
		}(nodes)
		wg.Wait()
		nodes += 2
		up := 0
		for _, n := range g.Nodes() {
			if n.Up() {
				up++
			}
		}
		if got := g.UpCount(); got != up {
			t.Fatalf("round %d: UpCount %d, scan %d", round, got, up)
		}
	}
	if crashes.Load() == 0 {
		t.Error("no injected crash: the crash branch went unexercised")
	}
}
