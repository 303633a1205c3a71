package planserve

import (
	"context"
	"sync"
)

// flightGroup coalesces concurrent work by key: the first caller for a key
// becomes the leader and runs the function; followers wait on the leader's
// result without consuming an admission slot. Unlike x/sync/singleflight
// (not vendored — the module is stdlib-only), followers wait with their own
// context, so a follower whose deadline expires abandons the flight without
// affecting the leader.
type flightGroup[T any] struct {
	mu sync.Mutex
	m  map[string]*flight[T]
}

type flight[T any] struct {
	done chan struct{}
	res  T
	err  error
}

// do runs fn once per key among concurrent callers. shared reports whether
// this caller was a follower (the result came from another request's run).
func (g *flightGroup[T]) do(ctx context.Context, key string, fn func() (T, error)) (res T, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flight[T])
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			return f.res, true, f.err
		case <-ctx.Done():
			return res, true, ctx.Err()
		}
	}
	f := &flight[T]{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()

	f.res, f.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.res, false, f.err
}
