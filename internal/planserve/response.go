package planserve

import (
	"encoding/json"
	"net/http"

	"bootes/internal/plancache"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// respond writes the JSON plan response. The permutation itself is opt-in
// (?perm=1): it is rows×~10 bytes of JSON that most clients (monitoring,
// cache warmers) do not want.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, resp *PlanResponse, cached, coalesced bool, breakerNote string) {
	resp.Cached = cached
	resp.Coalesced = coalesced
	resp.Breaker = breakerNote
	if r.URL.Query().Get("perm") != "1" {
		resp.Perm = nil
	}
	w.Header().Set("Content-Type", "application/json")
	if resp.Degraded {
		w.Header().Set("X-Bootes-Degraded", "true")
	}
	_ = json.NewEncoder(w).Encode(resp)
}

func planResponseFromResult(key string, m *sparse.CSR, res *reorder.Result) *PlanResponse {
	return &PlanResponse{
		Key:               key,
		Reordered:         res.Reordered,
		K:                 int(res.Extra["k"]),
		Degraded:          res.Degraded,
		DegradedReason:    res.DegradedReason,
		PreprocessSeconds: res.PreprocessTime.Seconds(),
		FootprintBytes:    res.FootprintBytes,
		Rows:              m.Rows,
		SimilarityMode:    res.SimilarityMode,
		AutoK:             res.AutoK,
		Perm:              res.Perm,
	}
}

// planResponseFromEntry shapes a cache entry into a response. On a server
// planning under auto-k the outcome is reported as "cached": the entry was
// keyed (and thus planned) with auto-k, but the per-attempt outcome string is
// not persisted.
func (s *Server) planResponseFromEntry(e *plancache.Entry) *PlanResponse {
	autoK := ""
	if s.cfg.AutoK {
		autoK = "cached"
	}
	return &PlanResponse{
		AutoK:             autoK,
		Key:               e.Key,
		Reordered:         e.Reordered,
		K:                 e.K,
		Degraded:          e.Degraded,
		DegradedReason:    e.DegradedReason,
		PreprocessSeconds: e.PreprocessSeconds,
		FootprintBytes:    e.FootprintBytes,
		Rows:              len(e.Perm),
		Perm:              e.Perm,
	}
}

// resultFromEntry rebuilds a pipeline-shaped result from a cached entry, for
// the singleflight leader's double-check path.
func resultFromEntry(e *plancache.Entry) *reorder.Result {
	return &reorder.Result{
		Perm:           e.Perm,
		Reordered:      e.Reordered,
		Degraded:       e.Degraded,
		DegradedReason: e.DegradedReason,
		FootprintBytes: e.FootprintBytes,
		Extra:          map[string]float64{"k": float64(e.K)},
	}
}
