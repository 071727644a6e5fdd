// Package par is the repository's one bounded worker pool: For runs an
// indexed loop body on a fixed number of goroutines that claim indices from
// a shared counter. Every fan-out in the engine — suite generation,
// instance preparation, per-tree training, leave-one-out folds, proximity
// targets, sweep configurations — goes through it, so the worker clamp and
// the panic contract live in one place. Memo is the matching keyed cache
// for work that must run once however many goroutines ask for it.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker bound for a pool over n items: workers when
// positive, GOMAXPROCS otherwise, capped at n so no goroutine starts idle,
// and never below 1.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Panic is the value For re-raises when a loop body panicked on a worker
// goroutine: the original panic value plus that goroutine's stack, which
// would otherwise be lost when the panic crosses goroutines.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\nworker goroutine stack:\n%s", p.Value, p.Stack)
}

// For calls fn(worker, i) for every i in 0..n-1 on Workers(workers, n)
// goroutines and returns when all calls have returned. worker is the index
// (0-based, below the resolved worker count) of the goroutine making the
// call, for per-worker state and metrics. Indices are claimed in order but
// may complete in any order; callers that need deterministic results write
// to per-index slots.
//
// With a single worker the loop runs on the calling goroutine. Otherwise,
// when fn panics, the panicking worker stops, the others finish their
// remaining indices, and For re-raises the first panic on the calling
// goroutine as a *Panic carrying the worker's stack.
func For(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  *Panic
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					p, ok := v.(*Panic)
					if !ok {
						p = &Panic{Value: v, Stack: debug.Stack()}
					}
					panicOnce.Do(func() { panicked = p })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
