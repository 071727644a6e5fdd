package par

import (
	"errors"
	"sync"
)

// ErrMemoPanicked is what Memo.Get returns to callers that waited on a
// computation whose fn panicked; the panicking caller itself re-panics.
var ErrMemoPanicked = errors.New("par: memoized computation panicked")

// Memo is a keyed cache that computes each value at most once at a time:
// the first caller of a key runs fn, and concurrent callers of the same key
// wait for that call instead of computing again. A successful value is kept
// for every later call; an error is handed to the waiters and then
// forgotten, so the next call retries. The zero Memo is ready to use and a
// Memo must not be copied after first use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoCall[V]
}

type memoCall[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Get returns the value for key, computing it with fn when no call for the
// key has succeeded or is in flight. hit reports that this caller did not
// run fn: the value was cached, or it waited for another caller's fn. When
// fn panics, the key is forgotten, every waiter gets ErrMemoPanicked, and
// the panic continues on the caller that ran fn.
func (m *Memo[K, V]) Get(key K, fn func() (V, error)) (v V, hit bool, err error) {
	m.mu.Lock()
	if c, ok := m.m[key]; ok {
		m.mu.Unlock()
		<-c.done
		return c.v, true, c.err
	}
	if m.m == nil {
		m.m = make(map[K]*memoCall[V])
	}
	c := &memoCall[V]{done: make(chan struct{}), err: ErrMemoPanicked}
	m.m[key] = c
	m.mu.Unlock()

	defer func() {
		if c.err != nil {
			m.mu.Lock()
			delete(m.m, key)
			m.mu.Unlock()
		}
		close(c.done)
	}()
	c.v, c.err = fn()
	return c.v, false, c.err
}

// Len reports how many keys are cached or being computed.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
