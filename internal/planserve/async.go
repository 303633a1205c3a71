package planserve

import (
	"encoding/json"
	"errors"
	"net/http"

	"bootes/internal/planqueue"
	"bootes/internal/sparse"
)

// JobResponse is the JSON body of POST /v1/plan?async=1 (202) and
// GET /v1/jobs/{id}.
type JobResponse struct {
	JobID    string `json:"job_id"`
	State    string `json:"state"`
	Tenant   string `json:"tenant"`
	Attempts int    `json:"attempts"`
	// Deduped is true on submission when an identical active job already
	// existed and was returned instead of a new one.
	Deduped bool `json:"deduped,omitempty"`
	// Reason carries the last failure for failed/dead jobs.
	Reason string `json:"reason,omitempty"`
	// Plan is populated once the job is done.
	Plan *PlanResponse `json:"plan,omitempty"`
}

// isAsync reports whether the submission asked for the async queue.
func isAsync(r *http.Request) bool {
	v := r.URL.Query().Get("async")
	return v == "1" || v == "true"
}

// handleAsyncSubmit enqueues the parsed matrix and answers 202 with the job
// handle. Backlog rejections are 429s with Retry-After, exactly like sync
// shedding, so one client retry loop serves both paths.
func (s *Server) handleAsyncSubmit(w http.ResponseWriter, r *http.Request, m *sparse.CSR, tenant string) {
	if s.cfg.Queue == nil {
		http.Error(w, "async planning is not enabled (start bootesd with -queue-dir)", http.StatusNotImplemented)
		return
	}
	jb, dup, err := s.cfg.Queue.Enqueue(tenant, m)
	if err != nil {
		switch {
		case errors.Is(err, planqueue.ErrQueueFull), errors.Is(err, planqueue.ErrTenantBacklog):
			s.asyncRejected.Inc()
			w.Header().Set("Retry-After", "5")
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.Is(err, planqueue.ErrClosed):
			http.Error(w, "shutting down", http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+jb.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(&JobResponse{
		JobID:    jb.ID,
		State:    string(jb.State),
		Tenant:   jb.Tenant,
		Attempts: jb.Attempts,
		Deduped:  dup,
	})
}

// handleJobGet serves GET /v1/jobs/{id}: the job's lifecycle position, plus
// the plan itself once the job is done (from the plan cache when available,
// otherwise the job's own summary — degraded plans are never cached).
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Queue == nil {
		http.Error(w, "async planning is not enabled (start bootesd with -queue-dir)", http.StatusNotImplemented)
		return
	}
	jb, ok := s.cfg.Queue.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job (terminal jobs age out of the retention window)", http.StatusNotFound)
		return
	}
	resp := &JobResponse{
		JobID:    jb.ID,
		State:    string(jb.State),
		Tenant:   jb.Tenant,
		Attempts: jb.Attempts,
		Reason:   jb.Reason,
	}
	if jb.State == planqueue.StateDone {
		resp.Reason = ""
		resp.Plan = s.asyncPlanBody(r, jb)
	}
	w.Header().Set("Content-Type", "application/json")
	if resp.Plan != nil && resp.Plan.Degraded {
		w.Header().Set("X-Bootes-Degraded", "true")
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// asyncPlanBody assembles the done job's plan payload. Healthy plans come
// from the plan cache (full fidelity, permutation on request), re-verified
// against the entry's own row count, which the job does not record; degraded
// plans — never cached by policy — and entries that fail verification are
// summarized from the job record.
func (s *Server) asyncPlanBody(r *http.Request, jb planqueue.Job) *PlanResponse {
	if s.cfg.Cache != nil && !jb.Degraded {
		if e, ok := s.cfg.Cache.Get(jb.Key); ok && s.verified(e, len(e.Perm), "cached") {
			plan := planResponseFromEntry(e)
			plan.Cached = jb.Cached
			if r.URL.Query().Get("perm") != "1" {
				plan.Perm = nil
			}
			return plan
		}
	}
	return &PlanResponse{
		Key:            jb.Key,
		Reordered:      jb.Reordered,
		K:              jb.K,
		Degraded:       jb.Degraded,
		DegradedReason: jb.DegradedReason,
		Cached:         jb.Cached,
	}
}
