package httpapi

import (
	"net/http"
	"strconv"
)

// handleTenants lists per-tenant fair-share configuration and accounting
// (weights, quotas, queue/running depths, admission and outcome counters,
// mean latencies), paginated like the other listings.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	limit, offset, err := parsePage(r)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	tenants := s.env.Engine.Tenants()
	writeJSON(w, http.StatusOK, page{
		Items:  paginate(tenants, limit, offset),
		Total:  len(tenants),
		Limit:  limit,
		Offset: offset,
	})
}

// handleTenantGet serves one tenant's accounting view; unknown tenants (never
// seen and not configured) answer 404.
func (s *Server) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	status, ok := s.env.Engine.Tenant(id)
	if !ok {
		s.writeError(w, r, http.StatusNotFound, "not_found", "no tenant %q", id)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// rateLimitHeaders stamps the X-RateLimit-* trio plus Retry-After on a 429.
// For rate-limited rejections the trio describes the tenant's token bucket;
// for queue-quota rejections it describes the queued-task allowance, with
// the engine's backlog-based estimate as the reset horizon.
func (s *Server) rateLimitHeaders(w http.ResponseWriter, tenant string, rate bool) {
	info := s.env.Engine.TenantAdmission(tenant)
	limit, remaining, reset := info.QueueLimit, info.QueueRemaining, s.env.Engine.RetryAfterSeconds()
	if rate {
		limit, remaining, reset = info.RateLimit, info.RateRemaining, info.RateResetSec
		if reset < 1 {
			reset = 1
		}
	}
	h := w.Header()
	h.Set("X-RateLimit-Limit", strconv.Itoa(limit))
	h.Set("X-RateLimit-Remaining", strconv.Itoa(remaining))
	h.Set("X-RateLimit-Reset", strconv.Itoa(reset))
	h.Set("Retry-After", strconv.Itoa(reset))
}
