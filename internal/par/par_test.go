package par

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
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
