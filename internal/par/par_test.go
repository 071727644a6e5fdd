package par

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolWorkersClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ workers, n, want int }{
		{0, 1000, min(procs, 1000)},
		{-3, 1000, min(procs, 1000)},
		{4, 2, 2},
		{4, 10, 4},
		{3, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.workers, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
}

func TestPoolVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 257
		var hits [n]atomic.Int32
		var maxWorker atomic.Int32
		For(n, workers, func(worker, i int) {
			hits[i].Add(1)
			for {
				m := maxWorker.Load()
				if int32(worker) <= m || maxWorker.CompareAndSwap(m, int32(worker)) {
					break
				}
			}
		})
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
		if int(maxWorker.Load()) >= Workers(workers, n) {
			t.Errorf("workers=%d: worker index %d out of range", workers, maxWorker.Load())
		}
	}
	For(0, 4, func(int, int) { t.Fatal("fn called for n = 0") })
}

func TestPoolReraisesPanic(t *testing.T) {
	boom := errors.New("boom")
	var done atomic.Int32
	func() {
		defer func() {
			v := recover()
			p, ok := v.(*Panic)
			if !ok {
				t.Fatalf("recovered %T %v, want *Panic", v, v)
			}
			if p.Value != boom {
				t.Errorf("panic value %v, want %v", p.Value, boom)
			}
			if !strings.Contains(p.Error(), "boom") || len(p.Stack) == 0 {
				t.Errorf("panic lacks value or stack: %q", p.Error())
			}
		}()
		For(50, 4, func(_, i int) {
			if i == 7 {
				panic(boom)
			}
			done.Add(1)
		})
	}()
	if done.Load() == 0 {
		t.Error("no index completed beside the panicking one")
	}
}

// TestMemoComputesOnce: concurrent callers of one key run fn once; every
// other caller is a hit and sees the same value.
func TestMemoComputesOnce(t *testing.T) {
	const n = 16
	var (
		m       Memo[string, *int]
		calls   atomic.Int32
		entered atomic.Int32
		hits    atomic.Int32
		wg      sync.WaitGroup
	)
	got := make([]*int, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			entered.Add(1)
			v, hit, err := m.Get("k", func() (*int, error) {
				calls.Add(1)
				// Hold the call open until every caller has arrived.
				for entered.Load() < n {
					runtime.Gosched()
				}
				time.Sleep(10 * time.Millisecond)
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
			if hit {
				hits.Add(1)
			}
			got[g] = v
		}(g)
	}
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1", c)
	}
	if h := hits.Load(); h != n-1 {
		t.Errorf("hits = %d, want %d", h, n-1)
	}
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("caller %d got a different value", g)
		}
	}
	if _, hit, _ := m.Get("k", nil); !hit {
		t.Error("a later call missed the cached value")
	}
}

// TestMemoErrorNotCached: a failed call's error reaches its waiters, and
// the next call computes again.
func TestMemoErrorNotCached(t *testing.T) {
	var m Memo[int, int]
	boom := errors.New("boom")
	release := make(chan struct{})
	waiter := make(chan error)
	go func() {
		<-release
		_, _, err := m.Get(1, func() (int, error) { return 5, nil })
		waiter <- err
	}()
	_, hit, err := m.Get(1, func() (int, error) {
		close(release)
		time.Sleep(20 * time.Millisecond)
		return 0, boom
	})
	if hit || !errors.Is(err, boom) {
		t.Fatalf("first call: hit %v, err %v; want a miss with boom", hit, err)
	}
	// The waiter either joined the failing call or retried after it.
	if err := <-waiter; err != nil && !errors.Is(err, boom) {
		t.Fatalf("waiter: %v", err)
	}
	v, hit, err := m.Get(1, func() (int, error) { return 7, nil })
	if err != nil || (!hit && v != 7) {
		t.Fatalf("retry after error: v %d, hit %v, err %v", v, hit, err)
	}
	calls := 0
	v, hit, err = m.Get(1, func() (int, error) { calls++; return 8, nil })
	if err != nil || !hit || calls != 0 || v == 8 {
		t.Fatalf("success not cached: v %d, hit %v, calls %d, err %v", v, hit, calls, err)
	}
}

// TestMemoPanicReleasesWaiters: a panicking fn re-panics on its caller,
// waiters get ErrMemoPanicked instead of hanging, and the key recomputes.
func TestMemoPanicReleasesWaiters(t *testing.T) {
	var m Memo[string, int]
	inFn := make(chan struct{})
	waiting := make(chan struct{})
	waiter := make(chan error, 1)
	go func() {
		<-inFn
		close(waiting)
		_, hit, err := m.Get("k", func() (int, error) { return 1, nil })
		if !hit && err == nil {
			// Arrived after the panic was cleaned up: a fresh computation
			// is the correct outcome then.
			err = ErrMemoPanicked
		}
		waiter <- err
	}()
	recovered := func() (v any) {
		defer func() { v = recover() }()
		m.Get("k", func() (int, error) {
			close(inFn)
			<-waiting
			time.Sleep(20 * time.Millisecond) // let the waiter block in Get
			panic("boom")
		})
		return nil
	}()
	if recovered != "boom" {
		t.Fatalf("recovered %v, want the original panic", recovered)
	}
	select {
	case err := <-waiter:
		if !errors.Is(err, ErrMemoPanicked) {
			t.Fatalf("waiter err = %v, want ErrMemoPanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter hung after the computing call panicked")
	}
	v, hit, err := m.Get("k", func() (int, error) { return 3, nil })
	if v != 3 || hit || err != nil {
		t.Fatalf("after panic: v %d, hit %v, err %v; want a fresh computation", v, hit, err)
	}
}
