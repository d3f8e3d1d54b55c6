// The wf-10-mutexreg baseline preserves the handle lifecycle this repository
// shipped before the lock-free pool (DESIGN.md §6): a sync.Mutex guarding a
// free slice of pre-acquired core handles. Queue operations are byte-for-byte
// the wait-free fast/slow paths of wf-10 — only Register/Release differ — so
// wfqbench's handles report can attribute any churn-throughput delta to the
// lifecycle alone. It is deliberately NOT wired through core.AcquireHandle on
// every Register: all core handles are checked out once at construction and
// then recycled under the lock, exactly as the old mutex-guarded bookkeeping
// behaved.
package registry

import (
	"sync"
	"sync/atomic"

	"wfqueue/internal/core"
	"wfqueue/internal/qiface"
)

type mutexRegAdapter struct {
	name  string
	boxed bool
	q     *core.Queue

	mu   sync.Mutex
	free []*core.Handle
}

func newMutexReg(name string, n int, boxed bool) (qiface.Queue, error) {
	q := core.New(n, core.WithPatience(10))
	a := &mutexRegAdapter{name: name, boxed: boxed, q: q}
	for {
		h, err := q.AcquireHandle()
		if err != nil {
			break
		}
		a.free = append(a.free, h)
	}
	return a, nil
}

func (a *mutexRegAdapter) Name() string { return a.name }

func (a *mutexRegAdapter) Register() (qiface.Ops, error) {
	a.mu.Lock()
	nfree := len(a.free)
	if nfree == 0 {
		a.mu.Unlock()
		return qiface.Ops{}, core.ErrTooManyHandles
	}
	h := a.free[nfree-1]
	a.free = a.free[:nfree-1]
	a.mu.Unlock()

	ops := buildWFOps(a.q, h, a.boxed)
	// Idempotence comes from the per-Ops flag, not the handle: the core
	// handle stays checked out for the adapter's lifetime, so a double
	// Release would otherwise double-append it to the free slice.
	var released atomic.Bool
	ops.Release = func() {
		if released.Swap(true) {
			return
		}
		a.mu.Lock()
		a.free = append(a.free, h)
		a.mu.Unlock()
	}
	return ops, nil
}

// Stats implements qiface.StatsProvider, identically to wfAdapter.
func (a *mutexRegAdapter) Stats() map[string]uint64 {
	return coreStatsMap(a.q.Stats())
}
