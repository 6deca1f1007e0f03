package cluster

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// listenAt rebinds the host:port of a base URL, for resurrecting a peer at
// its configured address.
func listenAt(url string) (net.Listener, error) {
	return net.Listen("tcp", strings.TrimPrefix(url, "http://"))
}

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("a=http://h1:8080, b=http://h2:8080/ ,c=http://h3:8080=3")
	if err != nil {
		t.Fatal(err)
	}
	want := []Peer{
		{ID: "a", Addr: "http://h1:8080"},
		{ID: "b", Addr: "http://h2:8080"},
		{ID: "c", Addr: "http://h3:8080", Weight: 3},
	}
	if len(peers) != len(want) {
		t.Fatalf("got %d peers, want %d", len(peers), len(want))
	}
	for i := range want {
		if peers[i] != want[i] {
			t.Errorf("peer %d = %+v, want %+v", i, peers[i], want[i])
		}
	}
	for _, bad := range []string{"", "a", "a=", "=addr", "a=addr=zero", "a=addr=-1"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}

func TestNewValidation(t *testing.T) {
	peers := []Peer{{ID: "a", Addr: "http://h1"}, {ID: "b", Addr: "http://h2"}}
	if _, err := New(Config{NodeID: "", Peers: peers}); err == nil {
		t.Error("missing NodeID accepted")
	}
	if _, err := New(Config{NodeID: "ghost", Peers: peers}); err == nil {
		t.Error("NodeID outside the peer list accepted")
	}
	if _, err := New(Config{NodeID: "a", Peers: []Peer{{ID: "a", Addr: "http://h1"}, {ID: "b"}}}); err == nil {
		t.Error("remote peer without address accepted")
	}
	n, err := New(Config{NodeID: "a", Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if n.Self().ID != "a" {
		t.Errorf("Self = %s, want a", n.Self().ID)
	}
	if !n.Alive("b") {
		t.Error("peers should start optimistically alive")
	}
}

// TestOwnerFailsOverToSuccessor checks the liveness-aware owner walk: keys
// owned by a dead member resolve to their first alive successor, and come
// back once the member rejoins.
func TestOwnerFailsOverToSuccessor(t *testing.T) {
	n, err := New(Config{NodeID: "a", Peers: []Peer{
		{ID: "a", Addr: "http://h1"}, {ID: "b", Addr: "http://h2"}, {ID: "c", Addr: "http://h3"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	// Find a key b owns.
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("task-%d", i)
		if n.Ring().Owner(Key("", key)) == "b" {
			break
		}
	}
	if _, self := n.Owner("", key); self {
		t.Fatal("key owned by b resolved to self while b is alive")
	}

	n.mu.Lock()
	n.peers["b"].alive = false
	n.mu.Unlock()
	peer, self := n.Owner("", key)
	if !self && peer.ID == "b" {
		t.Errorf("dead member still owns %s", key)
	}
	// The replacement is the ring successor, deterministically.
	succ := n.Ring().Successors(Key("", key))
	if want := succ[1]; (self && want != "a") || (!self && peer.ID != want) {
		t.Errorf("failover owner = %v/self=%v, want successor %s", peer.ID, self, want)
	}

	n.mu.Lock()
	n.peers["b"].alive = true
	n.mu.Unlock()
	if peer, self := n.Owner("", key); self || peer.ID != "b" {
		t.Errorf("rejoined member did not get its partition back (owner %s/self=%v)", peer.ID, self)
	}
}

// TestDeathPublishesFailover drives the heartbeat by hand: when the probe
// that crosses the miss threshold returns, the peer is dead AND its failover
// is already counted — there is no moment at which an observer (Status, or
// Owner routing the dead peer's keys here) sees one without the other.
func TestDeathPublishesFailover(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := dead.URL
	dead.Close()
	n, err := New(Config{
		NodeID:        "self",
		Peers:         []Peer{{ID: "self", Addr: "http://ignored"}, {ID: "dead", Addr: deadAddr}},
		Telemetry:     telemetry.New(),
		MissThreshold: 2,
		PeerTimeout:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := n.peers["dead"]
	n.probeOne(ps)
	if st := n.Status(); !n.Alive("dead") || st.Failovers != 0 || st.HeartbeatMisses != 1 {
		t.Fatalf("after one miss: alive=%v status=%+v", n.Alive("dead"), st)
	}
	n.probeOne(ps)
	if n.Alive("dead") {
		t.Fatal("peer still alive at the miss threshold")
	}
	if st := n.Status(); st.Failovers != 1 {
		t.Fatalf("peer is dead but failovers = %d", st.Failovers)
	}
	n.Stop() // waits for the replay goroutine
	if n.Rebalancing() {
		t.Error("still rebalancing after the replay finished")
	}
}

// TestHeartbeatDeclaresDeath runs a real heartbeat loop against one live
// and one dead HTTP endpoint and checks the overlay converges: the live
// peer stays alive, the dead one crosses the miss threshold and is
// declared dead, then rejoins when its endpoint comes back.
func TestHeartbeatDeclaresDeath(t *testing.T) {
	healthz := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	live := httptest.NewServer(healthz)
	defer live.Close()
	dead := httptest.NewServer(healthz)
	deadAddr := dead.URL
	dead.Close() // connection refused from the start

	n, err := New(Config{
		NodeID: "self",
		Peers: []Peer{
			{ID: "self", Addr: "http://ignored"},
			{ID: "live", Addr: live.URL},
			{ID: "dead", Addr: deadAddr},
		},
		Telemetry:         telemetry.New(),
		HeartbeatInterval: 20 * time.Millisecond,
		MissThreshold:     2,
		PeerTimeout:       200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	defer n.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for n.Alive("dead") {
		if time.Now().After(deadline) {
			t.Fatal("dead peer never declared dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !n.Alive("live") {
		t.Error("live peer was declared dead")
	}
	st := n.Status()
	if st.HeartbeatMisses == 0 {
		t.Error("heartbeat misses not counted")
	}
	if st.Failovers == 0 {
		t.Error("death did not trigger a failover")
	}

	// Resurrect the endpoint at the same address and wait for the rejoin.
	ln, err := listenAt(deadAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", deadAddr, err)
	}
	resurrected := &http.Server{Handler: healthz}
	go func() { _ = resurrected.Serve(ln) }()
	defer resurrected.Close()
	for !n.Alive("dead") {
		if time.Now().After(deadline) {
			t.Fatal("resurrected peer never rejoined")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEnterRebalance(t *testing.T) {
	n, err := New(Config{NodeID: "a", Peers: []Peer{{ID: "a", Addr: "http://h1"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if n.Rebalancing() {
		t.Fatal("fresh node reports rebalancing")
	}
	leave1 := n.EnterRebalance()
	leave2 := n.EnterRebalance()
	if !n.Rebalancing() {
		t.Fatal("EnterRebalance not reflected")
	}
	leave1()
	leave1() // idempotent
	if !n.Rebalancing() {
		t.Fatal("rebalancing cleared while a second replay is still running")
	}
	leave2()
	if n.Rebalancing() {
		t.Fatal("rebalancing stuck after every replay left")
	}
}

func TestStatusView(t *testing.T) {
	n, err := New(Config{NodeID: "b", Peers: []Peer{
		{ID: "a", Addr: "http://h1"}, {ID: "b", Addr: "http://h2", Weight: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	st := n.Status()
	if st.NodeID != "b" || st.RingVersion == "" {
		t.Fatalf("bad status identity: %+v", st)
	}
	if len(st.Members) != 2 || st.Members[0].ID != "a" || st.Members[1].ID != "b" {
		t.Fatalf("members not sorted by ID: %+v", st.Members)
	}
	if !st.Members[1].Self || st.Members[1].Weight != 2 {
		t.Errorf("self row wrong: %+v", st.Members[1])
	}
}
