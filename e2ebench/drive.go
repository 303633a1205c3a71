package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bootes/internal/sparse"
)

// servedByHeader names the node that answered a forwarded plan request
// (internal/fleet stamps it on proxied responses).
const servedByHeader = "X-Bootes-Served-By"

// job is one request: a matrix sent to one node, with what its answer must
// satisfy.
type job struct {
	url string
	m   *matrix
	// Hot-fleet only: the key's replica set and the permutation the set-up
	// miss returned.
	replicas []string
	want     []int32
}

// result is one completed request as the client saw it.
type result struct {
	// at is when the answer completed, in seconds from the first send.
	at        float64
	seconds   float64
	ok        bool
	forwarded bool
	perm      []int32
}

// planReply is the part of bootesd's /v1/plan body the checks read.
type planReply struct {
	Key            string  `json:"key"`
	Rows           int     `json:"rows"`
	Degraded       bool    `json:"degraded"`
	DegradedReason string  `json:"degradedReason"`
	Cached         bool    `json:"cached"`
	Perm           []int32 `json:"perm"`
}

// send posts one job and checks the answer. Latency covers the request and
// reading the whole response body; the checks run after the clock stops.
func send(ctx context.Context, client *http.Client, j *job, hot bool, t *tally) result {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, j.url+"/v1/plan?perm=1", bytes.NewReader(j.m.body))
	if err != nil {
		t.fail("building request", false)
		return result{}
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		t.fail("transport error", false)
		return result{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := result{seconds: time.Since(start).Seconds()}
	if err != nil {
		t.fail("reading response", false)
		return r
	}
	if resp.StatusCode != http.StatusOK {
		t.fail(fmt.Sprintf("status %d", resp.StatusCode), false)
		return r
	}
	servedBy := resp.Header.Get(servedByHeader)
	r.forwarded = servedBy != ""
	if reason, wrong := checkReply(body, j, hot, servedBy, &r); reason != "" {
		t.fail(reason, wrong)
		return r
	}
	r.ok = true
	t.ok()
	return r
}

// checkReply is the correctness gate for one answer. It returns the failure
// reason ("" when the answer is good) and whether the failure is a wrong
// answer rather than a refused or degraded one.
func checkReply(body []byte, j *job, hot bool, servedBy string, r *result) (reason string, wrong bool) {
	var rep planReply
	if err := json.Unmarshal(body, &rep); err != nil {
		return "undecodable plan response", true
	}
	if rep.Degraded {
		return "degraded plan: " + rep.DegradedReason, false
	}
	if rep.Key != j.m.key {
		return "response key differs from the matrix's", true
	}
	if err := sparse.Permutation(rep.Perm).Validate(j.m.rows); err != nil || rep.Rows != j.m.rows {
		return "permutation is not a bijection of the matrix rows", true
	}
	r.perm = rep.Perm
	if !hot {
		if rep.Cached {
			return "cold request hit the cache", false
		}
		return "", false
	}
	if !rep.Cached {
		return "hot request missed the cache", false
	}
	if !slices.Equal(rep.Perm, j.want) {
		return "hit permutation differs from its miss", true
	}
	answeredBy := servedBy
	if answeredBy == "" {
		answeredBy = j.url
	}
	if !slices.Contains(j.replicas, answeredBy) {
		return "served outside the key's replica set", true
	}
	return "", false
}

// drive runs clients closed-loop over jobs, in order, until d has elapsed or
// the list runs out; each client sends its next request only when its
// previous one has answered. It returns the completed requests in list order
// and the wall time from the first send to the last answer.
func drive(ctx context.Context, client *http.Client, jobs []*job, hot bool, clients int, d time.Duration) ([]result, time.Duration, tally) {
	results := make([]result, len(jobs))
	tallies := make([]tally, clients)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			// Every client sends at least once, so a run always attempts.
			for first := true; first || (time.Now().Before(deadline) && ctx.Err() == nil); first = false {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				results[i] = send(ctx, client, jobs[i], hot, t)
				results[i].at = since(start)
			}
		}(&tallies[c])
	}
	wg.Wait()
	wall := time.Since(start)
	var t tally
	for _, ct := range tallies {
		t.add(ct)
	}
	n := min(int(next.Load()), len(jobs))
	return results[:n], wall, t
}
