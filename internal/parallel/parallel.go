// Package parallel provides the shared bounded worker pool behind every
// multi-core path in the Bootes preprocessing pipeline: similarity
// construction, Lanczos matvecs, k-means, the per-k spectral sweep, and
// workload-parallel experiment execution.
//
// The design is deliberately work-stealing-free. A loop over [0, n) is split
// into fixed chunks of a caller-chosen grain; chunk boundaries depend only on
// (n, grain) — never on the worker count — and workers claim chunks from an
// atomic counter. Two consequences:
//
//   - Disjoint writes (chunk c writes only indices [c·grain, (c+1)·grain))
//     are bit-identical for every worker count, including 1.
//   - Reductions merge per-chunk partials in ascending chunk order, so
//     floating-point sums are also bit-identical for every worker count.
//
// That is the determinism contract the equivalence tests in internal/core
// assert: Perm/Assign/Inertia must not change when BOOTES_WORKERS changes.
//
// The worker budget is shared process-wide. Nested For calls (e.g. parallel
// k-means restarts inside a parallel spectral sweep) never deadlock and never
// oversubscribe: an inner call that finds the budget exhausted simply runs on
// its caller's goroutine.
package parallel

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"bootes/internal/faultinject"
)

var (
	// override holds an explicit SetWorkers value; 0 means "use the default"
	// (BOOTES_WORKERS env or GOMAXPROCS, resolved once).
	override atomic.Int64
	// extras counts extra worker goroutines currently running across all
	// concurrent For calls. Callers' own goroutines are not counted, so the
	// total concurrency of one For tree is bounded by Workers().
	extras atomic.Int64
)

// envWorkers resolves the startup default once: BOOTES_WORKERS when set to a
// positive integer, else GOMAXPROCS.
var envWorkers = sync.OnceValue(func() int {
	if s := os.Getenv("BOOTES_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
})

// Workers returns the current worker budget (always ≥ 1).
func Workers() int {
	if w := override.Load(); w > 0 {
		return int(w)
	}
	return envWorkers()
}

// SetWorkers overrides the worker budget; n ≤ 0 restores the default
// (BOOTES_WORKERS or GOMAXPROCS). It returns the previous effective budget.
func SetWorkers(n int) int {
	prev := Workers()
	if n <= 0 {
		override.Store(0)
	} else {
		override.Store(int64(n))
	}
	return prev
}

// Extras returns the number of extra worker goroutines currently live across
// every concurrent For call. Outside any For the pool is quiescent and Extras
// reports 0 — the invariant leakcheck and the chaos harness assert after each
// episode (a non-zero reading at rest means a worker leaked its slot).
func Extras() int64 { return extras.Load() }

// Sequential forces the old single-threaded behavior (worker budget 1) and
// returns a restore function:
//
//	defer parallel.Sequential()()
func Sequential() (restore func()) {
	raw := override.Load()
	override.Store(1)
	return func() { override.Store(raw) }
}

// For splits [0, n) into ⌈n/grain⌉ fixed chunks of size grain (the last chunk
// may be short) and calls body(lo, hi) once per chunk, using up to Workers()
// goroutines including the caller's. grain ≤ 0 selects 1.
//
// Chunks run concurrently in unspecified order; body must only write state
// that is disjoint per chunk (or otherwise synchronized). For reductions use
// Reduce, which merges partials deterministically.
//
// A panic in any chunk is re-raised on the calling goroutine after all
// workers have stopped.
func For(n, grain int, body func(lo, hi int)) {
	forWorkersCtx(context.Background(), Workers(), n, grain, body)
}

// ForContext is For with cooperative cancellation: once ctx is done, workers
// stop claiming new chunks (already-running chunk bodies finish) and the call
// returns ctx.Err(). Chunks that never ran leave their outputs untouched, so
// on a non-nil error the caller must discard partial results. A nil error
// means every chunk ran, with the same deterministic chunk boundaries as For.
func ForContext(ctx context.Context, n, grain int, body func(lo, hi int)) error {
	return forWorkersCtx(ctx, Workers(), n, grain, body)
}

// ForWorkers is For with an explicit worker bound for this call (still
// capped by the shared budget's free slots). w ≤ 1 runs sequentially on the
// caller. Experiment drivers use it to honor a -jobs flag independently of
// the global budget.
func ForWorkers(w, n, grain int, body func(lo, hi int)) {
	forWorkersCtx(context.Background(), w, n, grain, body)
}

// forWorkersCtx is the shared engine behind every For variant. The
// context-free callers pass context.Background(), whose Done channel is nil,
// so the cancellation checks vanish and the chunk schedule is exactly the
// historical one — the determinism contract is unchanged.
func forWorkersCtx(ctx context.Context, w, n, grain int, body func(lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if grain <= 0 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	done := ctx.Done()
	var next atomic.Int64
	run := func() {
		for {
			if done != nil {
				select {
				case <-done:
					// Stop this worker and keep the others from claiming
					// further chunks: the caller is about to see ctx.Err().
					next.Store(int64(chunks))
					return
				default:
				}
			}
			c := int(next.Add(1)) - 1
			if c >= chunks {
				return
			}
			if done != nil && faultinject.Fire(faultinject.WorkerStall) {
				// Injected stall: park on the context like a wedged worker.
				// The claimed chunk never runs, so the call can only end via
				// cancellation — exactly the scenario the stall tests drive.
				<-done
				next.Store(int64(chunks))
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	}
	want := w - 1
	if want > chunks-1 {
		want = chunks - 1
	}
	granted := acquireExtras(want)
	if granted == 0 {
		run()
		if done != nil {
			return ctx.Err()
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	guarded := func() {
		defer func() {
			if r := recover(); r != nil {
				rv := r
				panicked.CompareAndSwap(nil, &rv)
				next.Store(int64(chunks)) // stop other workers claiming chunks
			}
		}()
		run()
	}
	wg.Add(granted)
	for i := 0; i < granted; i++ {
		go func() {
			defer wg.Done()
			defer extras.Add(-1)
			guarded()
		}()
	}
	guarded()
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	if done != nil {
		return ctx.Err()
	}
	return nil
}

// acquireExtras claims up to want extra-worker slots from the shared budget
// without ever blocking; it returns how many were granted.
func acquireExtras(want int) int {
	granted := 0
	for granted < want {
		cur := extras.Load()
		if cur >= int64(Workers()-1) {
			break
		}
		if extras.CompareAndSwap(cur, cur+1) {
			granted++
		}
	}
	return granted
}

// Reduce runs mapChunk over the fixed chunking of [0, n) and folds the
// per-chunk partials in ascending chunk order:
//
//	result = merge(... merge(merge(zero, p₀), p₁) ..., p_last)
//
// Both the chunk boundaries and the merge order are independent of the
// worker count, so floating-point reductions are bit-identical whether the
// chunks ran on 1 worker or 16.
func Reduce[T any](n, grain int, zero T, mapChunk func(lo, hi int) T, merge func(acc, part T) T) T {
	v, _ := ReduceContext(context.Background(), n, grain, zero, mapChunk, merge)
	return v
}

// ReduceContext is Reduce with cooperative cancellation. On a non-nil error
// the returned value is meaningless (some chunks never ran) and must be
// discarded; on a nil error the fold is bit-identical to Reduce.
func ReduceContext[T any](ctx context.Context, n, grain int, zero T, mapChunk func(lo, hi int) T, merge func(acc, part T) T) (T, error) {
	if n <= 0 {
		return zero, ctx.Err()
	}
	if grain <= 0 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	partials := make([]T, chunks)
	if err := ForContext(ctx, n, grain, func(lo, hi int) {
		partials[lo/grain] = mapChunk(lo, hi)
	}); err != nil {
		return zero, err
	}
	acc := zero
	for _, p := range partials {
		acc = merge(acc, p)
	}
	return acc, nil
}
