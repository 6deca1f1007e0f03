package coordination

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// DefaultBackoffCap bounds one backoff wait (simulated seconds) when the
// policy does not set its own cap.
const DefaultBackoffCap = 300.0

// defaultMaxRetries is the attempts-per-activity bound of a policy that
// leaves MaxRetries zero.
const defaultMaxRetries = 3

// Policy is the per-task fault-tolerance policy: how often an activity is
// retried, how long the enactment backs off between attempts (in simulated
// time — no real sleeping happens), and an optional real-time deadline for
// the whole run. The zero value means "use the coordinator's defaults";
// ResolvePolicy fills the gaps.
type Policy struct {
	// MaxRetries bounds execution attempts per activity; attempts cycle
	// through the matchmade candidate list, so a retry lands on the next
	// best container before coming back around. 0 means the default (3).
	MaxRetries int
	// ActivityTimeout caps the accumulated backoff per activity, in
	// simulated seconds; once a further wait would exceed it the activity is
	// abandoned to re-planning. 0 means no cap.
	ActivityTimeout float64
	// BackoffBase is the first backoff wait in simulated seconds; waits
	// double per attempt up to BackoffCap and carry deterministic seeded
	// jitter. 0 disables backoff waits entirely (retries are immediate).
	BackoffBase float64
	// BackoffCap bounds a single wait; 0 means DefaultBackoffCap.
	BackoffCap float64
	// Seed feeds the jitter streams; same seed, same waits.
	Seed int64
	// Deadline, when positive, bounds the real (wall-clock) time of the
	// enactment via context cancellation.
	Deadline time.Duration
}

// Validate rejects policies with negative knobs. A nil policy is valid.
func (p *Policy) Validate() error {
	if p == nil {
		return nil
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("coordination: policy maxRetries must be >= 0, got %d", p.MaxRetries)
	}
	if p.ActivityTimeout < 0 {
		return fmt.Errorf("coordination: policy activityTimeout must be >= 0, got %g", p.ActivityTimeout)
	}
	if p.BackoffBase < 0 {
		return fmt.Errorf("coordination: policy backoffBase must be >= 0, got %g", p.BackoffBase)
	}
	if p.BackoffCap < 0 {
		return fmt.Errorf("coordination: policy backoffCap must be >= 0, got %g", p.BackoffCap)
	}
	if p.Deadline < 0 {
		return fmt.Errorf("coordination: policy deadline must be >= 0, got %s", p.Deadline)
	}
	return nil
}

// ResolvePolicy completes a (possibly nil) policy with the defaults.
func (c *Coordinator) ResolvePolicy(p *Policy) Policy {
	var out Policy
	if p != nil {
		out = *p
	}
	if out.MaxRetries <= 0 {
		out.MaxRetries = defaultMaxRetries
	}
	if out.BackoffBase < 0 {
		out.BackoffBase = 0
	}
	if out.BackoffCap <= 0 {
		out.BackoffCap = DefaultBackoffCap
	}
	if out.ActivityTimeout < 0 {
		out.ActivityTimeout = 0
	}
	if out.Deadline < 0 {
		out.Deadline = 0
	}
	return out
}

// backoff returns the wait before attempt+1 in simulated seconds: the base
// doubled per prior attempt, capped, with jitter in [0.5, 1.0) of the nominal
// wait so simultaneous retries decorrelate while staying deterministic.
func (p Policy) backoff(attempt int, rng *rand.Rand) float64 {
	d := p.BackoffBase
	for i := 1; i < attempt && d < p.BackoffCap; i++ {
		d *= 2
	}
	if d > p.BackoffCap {
		d = p.BackoffCap
	}
	return d * (0.5 + 0.5*rng.Float64())
}

// retryStream derives the jitter stream for one activity visit. Seeding from
// the activity name and visit count (not a shared stream) keeps an activity's
// backoff waits independent of the other members of its batch.
func (p Policy) retryStream(activity string, visit int) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(activity))
	return rand.New(rand.NewSource(int64(h.Sum64()) ^ p.Seed ^ (int64(visit) << 17)))
}
