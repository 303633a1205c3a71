package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bootes/internal/core"
)

// tiers returns the similarity tier the auto selector picks for each matrix.
func tiers(t *testing.T, ms []*matrix) []string {
	t.Helper()
	out := make([]string, len(ms))
	for i, m := range ms {
		a, err := decode(m.body)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = core.EffectiveSimilarityMode(a, core.SpectralOptions{Seed: 1}).String()
	}
	return out
}

func TestCorpusDeterminism(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			n := len(w.specs) + 2
			a, err := corpus(w, 1, n)
			if err != nil {
				t.Fatal(err)
			}
			again, err := corpus(w, 1, n)
			if err != nil {
				t.Fatal(err)
			}
			other, err := corpus(w, 2, n)
			if err != nil {
				t.Fatal(err)
			}
			keys := map[string]bool{}
			differ := 0
			for i := range a {
				if !bytes.Equal(a[i].body, again[i].body) || a[i].key != again[i].key {
					t.Fatalf("matrix %d differs between two generations with seed 1", i)
				}
				if keys[a[i].key] {
					t.Fatalf("matrix %d repeats an earlier key", i)
				}
				keys[a[i].key] = true
				if !bytes.Equal(a[i].body, other[i].body) {
					differ++
				}
				if (w.text && bytes.HasPrefix(a[i].body, []byte("BCSR"))) || (!w.text && !bytes.HasPrefix(a[i].body, []byte("BCSR"))) {
					t.Fatalf("matrix %d has the wrong body format", i)
				}
			}
			if differ < n-1 {
				t.Errorf("seeds 1 and 2 share %d of %d bodies", n-differ, n)
			}
			ta, to := tiers(t, a), tiers(t, other)
			for i := range ta {
				if ta[i] != to[i] {
					t.Errorf("matrix %d: tier %s under seed 1, %s under seed 2", i, ta[i], to[i])
				}
			}
		})
	}
}

func TestHotScheduleOwnerRelative(t *testing.T) {
	const set, n = 16, 16 * numRoles * 3
	a, b := hotSchedule(5, set, n), hotSchedule(5, set, n)
	other := hotSchedule(6, set, n)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs between two schedules with one seed", i)
		}
		if a[i] == other[i] {
			same++
		}
	}
	if same == n {
		t.Error("seeds 5 and 6 give the same schedule")
	}
	// Every block sends each (matrix, role) pair once: a third to owners.
	block := set * numRoles
	for start := 0; start < n; start += block {
		seen := map[hotStep]bool{}
		owners := 0
		for _, st := range a[start : start+block] {
			seen[st] = true
			if st.role == roleOwner {
				owners++
			}
		}
		if len(seen) != block || owners != set {
			t.Errorf("block at %d: %d distinct steps, %d to owners; want %d, %d", start, len(seen), owners, block, set)
		}
	}
}

// TestDriveCountsFailures drives a fake plan server that refuses every third
// request and answers one with a non-bijective permutation.
func TestDriveCountsFailures(t *testing.T) {
	w, _ := workloadByName("cold-sparse")
	ms, err := corpus(w, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		c := calls.Add(1)
		if c%3 == 0 {
			http.Error(rw, "overloaded", http.StatusTooManyRequests)
			return
		}
		perm := make([]int32, m.rows)
		for i := range perm {
			perm[i] = int32(i)
		}
		if c == 4 {
			perm[0] = 1 // a duplicate: not a bijection
		}
		_ = json.NewEncoder(rw).Encode(planReply{Key: m.key, Rows: m.rows, Perm: perm})
	}))
	defer srv.Close()

	jobs := make([]*job, 9)
	for i := range jobs {
		jobs[i] = &job{url: srv.URL, m: m}
	}
	// A long deadline: the run ends when the list does.
	results, _, tl := drive(context.Background(), srv.Client(), jobs, false, 1, time.Minute)
	if len(results) != 9 || tl.attempted != 9 {
		t.Fatalf("completed %d, attempted %d; want 9, 9", len(results), tl.attempted)
	}
	if tl.failed != 4 || tl.wrong != 1 {
		t.Errorf("failed %d, wrong %d; want 4 (3 refused + 1 wrong), 1", tl.failed, tl.wrong)
	}
	ok := 0
	for _, r := range results {
		if r.ok {
			ok++
		}
	}
	if ok != 5 {
		t.Errorf("%d ok results, want 5", ok)
	}
}

func TestCheckReplyHot(t *testing.T) {
	m := &matrix{rows: 3, key: "k"}
	j := &job{url: "http://a", m: m, replicas: []string{"http://a", "http://b"}, want: []int32{2, 0, 1}}
	reply := func(perm []int32, cached bool) []byte {
		b, _ := json.Marshal(planReply{Key: "k", Rows: 3, Cached: cached, Perm: perm})
		return b
	}
	cases := []struct {
		name     string
		body     []byte
		servedBy string
		reason   bool
		wrong    bool
	}{
		{"owner hit", reply([]int32{2, 0, 1}, true), "", false, false},
		{"forwarded hit", reply([]int32{2, 0, 1}, true), "http://b", false, false},
		{"miss", reply([]int32{2, 0, 1}, false), "", true, false},
		{"hit differs from miss", reply([]int32{0, 1, 2}, true), "", true, true},
		{"outside replica set", reply([]int32{2, 0, 1}, true), "http://c", true, true},
		{"not a bijection", reply([]int32{0, 0, 1}, true), "", true, true},
	}
	for _, c := range cases {
		var r result
		reason, wrong := checkReply(c.body, j, true, c.servedBy, &r)
		if (reason != "") != c.reason || wrong != c.wrong {
			t.Errorf("%s: reason %q wrong %v; want failure %v wrong %v", c.name, reason, wrong, c.reason, c.wrong)
		}
	}
}
