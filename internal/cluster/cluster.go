package cluster

import (
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/telemetry"
)

// Peer is one configured cluster member: identity, HTTP base address, and
// ring weight.
type Peer struct {
	ID string `json:"id"`
	// Addr is the peer's HTTP base URL (scheme://host:port, no trailing
	// slash); requests are forwarded to Addr + the original path.
	Addr string `json:"addr"`
	// Weight is the peer's ring weight; non-positive means 1.
	Weight int `json:"weight,omitempty"`
}

// Defaults for Config.
const (
	DefaultHeartbeatInterval = 500 * time.Millisecond
	DefaultMissThreshold     = 3
	DefaultForwardTimeout    = 10 * time.Second
	DefaultPeerTimeout       = 2 * time.Second
)

// Config wires a Node.
type Config struct {
	// NodeID is this process's identity; it must appear in Peers.
	NodeID string
	// Peers is the full static membership, including this node.
	Peers []Peer
	// Engine, when set, is replayed on failover: the dead peer's journals
	// (read from the shared store) re-enter this node's queue via
	// engine.RecoverOwned under the ring's ownership filter.
	Engine *engine.Engine
	// Telemetry receives the cluster.* counters; nil disables.
	Telemetry *telemetry.Registry
	// Logger receives membership transitions and failover reports; nil
	// means silent.
	Logger *slog.Logger
	// HeartbeatInterval is the probe period (default 500ms).
	HeartbeatInterval time.Duration
	// MissThreshold is how many consecutive probe failures declare a peer
	// dead (default 3).
	MissThreshold int
	// PeerTimeout bounds one heartbeat probe and one scatter-gather leg
	// (default 2s).
	PeerTimeout time.Duration
	// ForwardTimeout bounds one forwarded request (default 10s).
	ForwardTimeout time.Duration
}

// peerState is the liveness overlay of one remote peer.
type peerState struct {
	peer     Peer
	alive    bool
	misses   int
	lastSeen time.Time
	lastErr  string
}

// Node is this process's view of the cluster: the static ring plus the
// live peer health overlay. Create with New, Start the heartbeat loop,
// Stop on shutdown.
type Node struct {
	cfg  Config
	self Peer
	ring *Ring

	probe   *http.Client // heartbeats and scatter-gather
	forward *http.Client // forwarded user requests

	mu    sync.Mutex
	peers map[string]*peerState // remote peers only

	rebalancing atomic.Int32
	stop        chan struct{}
	stopped     sync.Once
	wg          sync.WaitGroup

	mForwarded, mForwardErrors   *telemetry.Counter
	mHeartbeatMisses, mFailovers *telemetry.Counter
}

// New validates the membership and builds the node. Peer liveness starts
// optimistic (everyone alive) so forwarding works before the first probe
// round; Start launches the heartbeat loop that maintains it.
func New(cfg Config) (*Node, error) {
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("cluster: NodeID is required")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.MissThreshold <= 0 {
		cfg.MissThreshold = DefaultMissThreshold
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = DefaultPeerTimeout
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = DefaultForwardTimeout
	}
	if cfg.Logger == nil {
		cfg.Logger = telemetry.NopLogger()
	}
	members := make([]Member, 0, len(cfg.Peers))
	var self *Peer
	for i := range cfg.Peers {
		p := cfg.Peers[i]
		members = append(members, Member{ID: p.ID, Weight: p.Weight})
		if p.ID == cfg.NodeID {
			self = &cfg.Peers[i]
		}
	}
	if self == nil {
		return nil, fmt.Errorf("cluster: node %q is not in the peer list", cfg.NodeID)
	}
	ring, err := NewRing(members)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		self:    *self,
		ring:    ring,
		probe:   &http.Client{Timeout: cfg.PeerTimeout},
		forward: &http.Client{Timeout: cfg.ForwardTimeout},
		peers:   make(map[string]*peerState),
		stop:    make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		if p.ID == cfg.NodeID {
			continue
		}
		if p.Addr == "" {
			return nil, fmt.Errorf("cluster: peer %q has no address", p.ID)
		}
		n.peers[p.ID] = &peerState{peer: p, alive: true}
	}
	tel := cfg.Telemetry
	n.mForwarded = tel.Counter("cluster.forwarded")
	n.mForwardErrors = tel.Counter("cluster.forward_errors")
	n.mHeartbeatMisses = tel.Counter("cluster.heartbeat_misses")
	n.mFailovers = tel.Counter("cluster.failovers")
	return n, nil
}

// Self returns this node's own peer entry.
func (n *Node) Self() Peer { return n.self }

// Ring returns the static ownership ring.
func (n *Node) Ring() *Ring { return n.ring }

// ForwardClient is the HTTP client forwarded requests ride on.
func (n *Node) ForwardClient() *http.Client { return n.forward }

// Start launches the heartbeat loop. Idempotent per node (a second Start
// adds nothing); Stop ends it.
func (n *Node) Start() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(n.cfg.HeartbeatInterval)
		defer ticker.Stop()
		for {
			select {
			case <-n.stop:
				return
			case <-ticker.C:
				n.probeAll()
			}
		}
	}()
}

// Stop ends the heartbeat loop and waits for in-flight failovers spawned by
// it to settle. Safe to call more than once, or without Start.
func (n *Node) Stop() {
	n.stopped.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// probeAll runs one heartbeat round over every remote peer.
func (n *Node) probeAll() {
	n.mu.Lock()
	targets := make([]*peerState, 0, len(n.peers))
	for _, ps := range n.peers {
		targets = append(targets, ps)
	}
	n.mu.Unlock()
	for _, ps := range targets {
		n.probeOne(ps)
	}
}

// probeOne probes one peer's liveness endpoint and folds the outcome into
// the overlay; a peer crossing the miss threshold triggers failover.
func (n *Node) probeOne(ps *peerState) {
	ok, errText := n.ping(ps.peer)
	n.mu.Lock()
	if ok {
		wasDead := !ps.alive
		ps.alive = true
		ps.misses = 0
		ps.lastSeen = time.Now()
		ps.lastErr = ""
		n.mu.Unlock()
		if wasDead {
			n.cfg.Logger.Info("peer rejoined", slog.String("peer", ps.peer.ID))
		}
		return
	}
	ps.misses++
	ps.lastErr = errText
	n.mHeartbeatMisses.Inc()
	died := ps.alive && ps.misses >= n.cfg.MissThreshold
	var leave func()
	if died {
		// Death and its failover are one transition: the failover is counted
		// and the node is rebalancing (so /readyz answers 503) before the
		// lock that publishes alive=false is released. Whoever then sees the
		// peer dead — Alive, or Owner routing its keys here — also sees the
		// partition being claimed, never a ready node that has not begun to.
		ps.alive = false
		n.mFailovers.Inc()
		leave = n.EnterRebalance()
	}
	n.mu.Unlock()
	if died {
		n.cfg.Logger.Warn("peer declared dead",
			slog.String("peer", ps.peer.ID), slog.Int("misses", ps.misses),
			slog.String("lastError", errText))
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.replayPartition(ps.peer.ID, leave)
		}()
	}
}

// ping probes one peer's /healthz.
func (n *Node) ping(p Peer) (bool, string) {
	resp, err := n.probe.Get(strings.TrimSuffix(p.Addr, "/") + "/healthz")
	if err != nil {
		return false, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("healthz answered %d", resp.StatusCode)
	}
	return true, ""
}

// Alive reports whether the member is currently considered alive (this
// node itself always is).
func (n *Node) Alive(id string) bool {
	if id == n.cfg.NodeID {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ps, ok := n.peers[id]
	return ok && ps.alive
}

// Owner resolves the live owner of a resource: the key's primary ring
// owner, or — while that member is dead — the first alive successor. The
// bool reports whether this node is the owner (handle locally).
func (n *Node) Owner(tenant, id string) (Peer, bool) {
	for _, member := range n.ring.Successors(Key(tenant, id)) {
		if member == n.cfg.NodeID {
			return n.self, true
		}
		n.mu.Lock()
		ps, ok := n.peers[member]
		alive := ok && ps.alive
		peer := Peer{}
		if ok {
			peer = ps.peer
		}
		n.mu.Unlock()
		if alive {
			return peer, false
		}
	}
	// Every configured member is dead but this one is still serving:
	// claim the key rather than fail the request.
	return n.self, true
}

// Failover claims the dead peer's share of the key space: it replays every
// journaled task whose live owner is now this node (engine.RecoverOwned
// skips tasks the engine already tracks, so only the dead peer's partition
// actually moves). While the replay runs the node reports itself
// rebalancing and /readyz answers 503, so load balancers hold traffic
// until the partition is consistent. The heartbeat loop runs the same
// transition when it declares a peer dead; this entry point is for
// operational tooling forcing a partition sweep.
func (n *Node) Failover(deadID string) {
	n.mFailovers.Inc()
	n.replayPartition(deadID, n.EnterRebalance())
}

// replayPartition is the replay half of a failover that has already been
// counted and has already entered rebalancing; leave ends the latter.
func (n *Node) replayPartition(deadID string, leave func()) {
	defer leave()
	if n.cfg.Engine == nil {
		return
	}
	report, err := n.cfg.Engine.RecoverOwned(func(tenant, taskID string) bool {
		_, mine := n.Owner(tenant, taskID)
		return mine
	})
	if err != nil {
		n.cfg.Logger.Error("failover replay failed",
			slog.String("deadPeer", deadID), slog.String("error", err.Error()))
		return
	}
	n.cfg.Logger.Info("failover replay finished",
		slog.String("deadPeer", deadID),
		slog.Int("requeued", len(report.Requeued)),
		slog.Int("resumed", len(report.Resumed)),
		slog.Int("restarted", len(report.Restarted)),
		slog.Int("terminal", report.Terminal))
}

// EnterRebalance marks the node as rebalancing until the returned leave
// function runs. Failover wraps its replay in it; manual partition moves
// can use it to drain a node behind /readyz first.
func (n *Node) EnterRebalance() (leave func()) {
	n.rebalancing.Add(1)
	var once sync.Once
	return func() { once.Do(func() { n.rebalancing.Add(-1) }) }
}

// Rebalancing reports whether a failed-over partition is still replaying;
// /readyz answers 503 cluster_rebalancing while it is.
func (n *Node) Rebalancing() bool { return n.rebalancing.Load() > 0 }

// PeerHealth is one row of the /api/v1/cluster membership view.
type PeerHealth struct {
	ID     string `json:"id"`
	Addr   string `json:"addr"`
	Weight int    `json:"weight"`
	Self   bool   `json:"self,omitempty"`
	Alive  bool   `json:"alive"`
	// Misses is the current consecutive probe-failure count (0 for self).
	Misses   int       `json:"misses,omitempty"`
	LastSeen time.Time `json:"lastSeen,omitzero"`
	LastErr  string    `json:"lastError,omitempty"`
}

// Status is the GET /api/v1/cluster body: identity, ring version, and the
// per-member health overlay, plus this node's forwarding counters.
type Status struct {
	NodeID      string       `json:"nodeId"`
	RingVersion string       `json:"ringVersion"`
	Rebalancing bool         `json:"rebalancing"`
	Members     []PeerHealth `json:"members"`
	// Forwarded / ForwardErrors / HeartbeatMisses / Failovers are this
	// node's cluster.* counters.
	Forwarded       int64 `json:"forwarded"`
	ForwardErrors   int64 `json:"forwardErrors"`
	HeartbeatMisses int64 `json:"heartbeatMisses"`
	Failovers       int64 `json:"failovers"`
}

// Status snapshots the node's cluster view. The counters and the
// rebalancing flag are read after the member overlay, so a snapshot that
// shows a peer dead also shows its failover (see probeOne).
func (n *Node) Status() Status {
	st := Status{NodeID: n.cfg.NodeID, RingVersion: n.ring.Version()}
	w := n.self.Weight
	if w <= 0 {
		w = 1
	}
	st.Members = append(st.Members, PeerHealth{
		ID: n.self.ID, Addr: n.self.Addr, Weight: w, Self: true, Alive: true,
	})
	n.mu.Lock()
	for _, ps := range n.peers {
		w := ps.peer.Weight
		if w <= 0 {
			w = 1
		}
		st.Members = append(st.Members, PeerHealth{
			ID: ps.peer.ID, Addr: ps.peer.Addr, Weight: w,
			Alive: ps.alive, Misses: ps.misses,
			LastSeen: ps.lastSeen, LastErr: ps.lastErr,
		})
	}
	n.mu.Unlock()
	sort.Slice(st.Members, func(i, j int) bool { return st.Members[i].ID < st.Members[j].ID })
	st.Rebalancing = n.Rebalancing()
	st.Forwarded = n.mForwarded.Value()
	st.ForwardErrors = n.mForwardErrors.Value()
	st.HeartbeatMisses = n.mHeartbeatMisses.Value()
	st.Failovers = n.mFailovers.Value()
	return st
}

// AlivePeers returns the remote peers currently considered alive, sorted
// by ID — the scatter-gather fan-out set.
func (n *Node) AlivePeers() []Peer {
	n.mu.Lock()
	out := make([]Peer, 0, len(n.peers))
	for _, ps := range n.peers {
		if ps.alive {
			out = append(out, ps.peer)
		}
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PeerTimeout is the per-peer scatter-gather budget.
func (n *Node) PeerTimeout() time.Duration { return n.cfg.PeerTimeout }

// NoteForward records one forwarded request (and, when err is non-nil, one
// forwarding failure). The HTTP layer calls it.
func (n *Node) NoteForward(err error) {
	n.mForwarded.Inc()
	if err != nil {
		n.mForwardErrors.Inc()
	}
}

// ParsePeers parses the gridenv -peers flag: a comma-separated list of
// id=addr or id=addr=weight entries, e.g.
// "a=http://10.0.0.1:8080,b=http://10.0.0.2:8080=2".
func ParsePeers(s string) ([]Peer, error) {
	var out []Peer
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.SplitN(part, "=", 3)
		if len(fields) < 2 || fields[0] == "" || fields[1] == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want id=addr or id=addr=weight)", part)
		}
		p := Peer{ID: fields[0], Addr: strings.TrimSuffix(fields[1], "/")}
		if len(fields) == 3 {
			var w int
			if _, err := fmt.Sscanf(fields[2], "%d", &w); err != nil || w <= 0 {
				return nil, fmt.Errorf("cluster: bad weight in peer %q", part)
			}
			p.Weight = w
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return out, nil
}
