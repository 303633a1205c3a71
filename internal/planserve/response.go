package planserve

import (
	"encoding/json"
	"net/http"

	"bootes/internal/plancache"
	"bootes/internal/reorder"
	"bootes/internal/sparse"
)

// respond writes the JSON plan response; hit is the cache entry behind
// resp, nil when the plan was not a cache answer. The permutation itself is
// opt-in (?perm=1): it is rows×~10 bytes of JSON that most clients
// (monitoring, cache warmers) do not want.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, resp *PlanResponse, hit *plancache.Entry, coalesced bool, breakerNote string) {
	resp.Cached = hit != nil
	resp.Coalesced = coalesced
	resp.Breaker = breakerNote
	if r.URL.Query().Get("perm") != "1" {
		resp.Perm = nil
	}
	w.Header().Set("Content-Type", "application/json")
	if resp.Degraded {
		w.Header().Set("X-Bootes-Degraded", "true")
	}
	if hit == nil || len(resp.Perm) == 0 {
		_ = json.NewEncoder(w).Encode(resp)
		return
	}
	// A hit's permutation is written from the entry's kept encoding
	// (plancache.Entry.PermJSON), so the body is byte for byte what
	// json.Encoder writes: Perm is the struct's last field, written last,
	// before the closing brace and the newline.
	resp.Perm = nil
	head, err := json.Marshal(resp)
	if err != nil {
		return // as json.Encoder does: nothing written
	}
	_, _ = w.Write(head[:len(head)-1])
	_, _ = w.Write(permField)
	_, _ = w.Write(hit.PermJSON())
	_, _ = w.Write(permTail)
}

var permField, permTail = []byte(`,"perm":`), []byte("}\n")

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
		Perm:              res.Perm,
	}
}

// planResponseFromEntry shapes a cache entry into a response.
func planResponseFromEntry(e *plancache.Entry) *PlanResponse {
	return &PlanResponse{
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
// an async job the cache completes.
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
