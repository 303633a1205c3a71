package fleet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bootes/internal/leakcheck"
	"bootes/internal/obs"
	"bootes/internal/planserve"
)

// padBody returns a Matrix Market body of the same matrix at least size
// bytes long, padded with comment lines of fill after the header: the bytes
// change, the plan key does not.
func padBody(body []byte, size int, fill byte) []byte {
	nl := bytes.IndexByte(body, '\n') + 1
	out := append([]byte(nil), body[:nl]...)
	line := append(append([]byte{'%'}, bytes.Repeat([]byte{fill}, 1022)...), '\n')
	for len(out)+len(body)-nl < size {
		out = append(out, line...)
	}
	return append(out, body[nl:]...)
}

// askForBody answers a read by key as a peer that lacks the plan does, and
// reports whether r was one.
func askForBody(w http.ResponseWriter, r *http.Request) bool {
	if r.Header.Get(planserve.KeyHeader) == "" {
		return false
	}
	w.Header().Set(planserve.SendBodyHeader, "1")
	w.WriteHeader(http.StatusNotFound)
	return true
}

// lingeringPeer is the far end of a forward as net/http's RoundTripper
// contract lets a transport behave: it asks for the body, and then the
// round trip gives up when the forward is cancelled, but the request body
// is read on, slowly, to its end, and closed only then. It reports the
// SHA-256 of what it read.
type lingeringPeer struct {
	sum chan [sha256.Size]byte
}

func (p *lingeringPeer) RoundTrip(req *http.Request) (*http.Response, error) {
	if rec := httptest.NewRecorder(); askForBody(rec, req) {
		return rec.Result(), nil
	}
	go func() {
		defer req.Body.Close()
		h := sha256.New()
		buf := make([]byte, 1024)
		for {
			n, err := req.Body.Read(buf)
			h.Write(buf[:n])
			if err != nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
		p.sum <- [sha256.Size]byte(h.Sum(nil))
	}()
	<-req.Context().Done()
	return nil, req.Context().Err()
}

// rewindingTransport sends requests for host to lingering and every other
// body forward through next after a rewind: it reads a little of the body,
// closes it and sends a fresh one from GetBody, as net/http does when it
// retries a request on a new connection. Reads by key go to next as they
// are.
type rewindingTransport struct {
	host      string
	lingering http.RoundTripper
	next      http.RoundTripper
}

func (t *rewindingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == t.host {
		return t.lingering.RoundTrip(req)
	}
	if req.Body == nil {
		return t.next.RoundTrip(req)
	}
	_, _ = req.Body.Read(make([]byte, 100))
	req.Body.Close()
	body, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	rewound := req.Clone(req.Context())
	rewound.Body = body
	return t.next.RoundTrip(rewound)
}

// TestHedgeLoserKeepsItsBody: a forward's request body outlives the handler
// that read it. Both peers ask for the body. The key's owner reads its
// forward slowly and is still reading when the hedge's answer has been
// relayed and the handler has returned, while other requests read
// same-sized bodies through the pool. The owner must still read the
// client's exact bytes, the hedge target must get them through a GetBody
// rewind, and every reference must settle.
func TestHedgeLoserKeepsItsBody(t *testing.T) {
	// On one P, sync.Pool hands a released buffer to the very next request
	// that asks for one, so a buffer released too early is overwritten.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var hedgeGot atomic.Value
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if askForBody(w, r) {
			return
		}
		h := sha256.New()
		_, _ = io.Copy(h, r.Body)
		hedgeGot.Store([sha256.Size]byte(h.Sum(nil)))
		fmt.Fprint(w, `{"k":8}`)
	}))
	defer fast.Close()
	const self, slow = "http://self.invalid", "http://slow.invalid"
	reg := obs.NewRegistry()
	rt, err := New(Config{Self: self, Peers: []string{self, slow, fast.URL}, Replicas: 3,
		HedgeAfter: 10 * time.Millisecond, Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	loser := &lingeringPeer{sum: make(chan [sha256.Size]byte, 1)}
	next := &http.Transport{}
	defer next.CloseIdleConnections()
	rt.client.Transport = &rewindingTransport{host: "slow.invalid", lingering: loser, next: next}
	var computes atomic.Int64
	srv, err := planserve.New(planserve.Config{Plan: countingPlan(&computes), Route: rt.Route, Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv.Handler())
	defer front.Close()
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()

	body := padBody(bodyOwnedBy(t, rt, 2, slow, fast.URL), 200<<10, 'a')
	want := sha256.Sum256(body)
	if resp, _ := postPlan(t, client, front.URL, body); resp.Header.Get(ServedByHeader) != fast.URL {
		t.Fatalf("served by %q, want the hedge target %s", resp.Header.Get(ServedByHeader), fast.URL)
	}
	select {
	case <-loser.sum:
		t.Fatal("the owner read its whole forward before the handler returned: nothing was tested")
	default:
	}
	if got, _ := hedgeGot.Load().([sha256.Size]byte); got != want {
		t.Error("the hedge target's rewound forward carried other bytes than the client's")
	}

	// Bodies of the same size class, served here, take buffers from the pool
	// while the owner reads on.
	local := bodyOwnedBy(t, rt, 1, self)
	for i := 0; i < 20; i++ {
		if resp, _ := postPlan(t, client, front.URL, padBody(local, 200<<10, byte('b'+i))); resp.StatusCode != http.StatusOK {
			t.Fatalf("local request %d: status %d", i, resp.StatusCode)
		}
	}
	select {
	case got := <-loser.sum:
		if got != want {
			t.Error("the hedge loser read other bytes than the client sent: its buffer was reused under it")
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the hedge loser never finished reading")
	}
	if err := leakcheck.SettleZero("body references", srv.BodyRefs); err != nil {
		t.Error(err)
	}
}
