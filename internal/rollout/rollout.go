// Package rollout is the shared execution engine under the belief layer
// and the planner: both spend essentially all of their time advancing
// independent hypotheses ("rollouts"), so this package provides the one
// mechanism they share — a bounded worker pool that shards an index
// space across workers, with a per-worker scratch arena of reusable
// model buffers so the inner loops allocate nothing.
//
// Determinism is load-bearing. Workers only ever write results into
// per-index slots of caller-presized slices, and every reduction the
// callers perform walks those slots in index order. Together these make
// the output bit-identical for any worker count, including 1 — which is
// what the serial/parallel equivalence tests assert.
package rollout

import (
	"runtime"
	"sync"

	"modelcc/internal/model"
)

// Scratch is one worker's private arena: reusable buffers the hot loops
// clone and simulate into instead of allocating. Slices handed back to
// the caller must be copied out or consumed before the next use of the
// same scratch index.
type Scratch struct {
	// Base is a reusable clone target.
	Base model.State
	// Events is a reusable event buffer.
	Events []model.Event
	// Aux carries a caller-defined arena (e.g. the planner's candidate
	// lanes and step table); it stays attached to the worker across
	// calls so its buffers amortize too.
	Aux any
}

// Pool runs index-sharded jobs on up to Workers goroutines. The zero
// value is not usable; construct with New. A Pool is safe for reuse
// across calls but a single Run must finish before the next begins (the
// scratch arenas are per-worker, not per-call).
type Pool struct {
	workers int
	scratch []*Scratch
	// Aux carries a caller-defined arena for the whole pool, the
	// counterpart of Scratch.Aux for what a call needs before and after
	// its parallel section (the planner keeps its per-call buffers and
	// its rollout memo here). It is touched only by the goroutine that
	// holds the pool, outside Run, so it needs no lock.
	Aux any
	// Belief carries the belief update's arena on the same terms: the
	// buffers an update needs only while it runs, which every belief on
	// the pool shares.
	Belief any
}

// New returns a pool of the given width; workers <= 0 means
// GOMAXPROCS(0). Width 1 runs every job inline on the caller's
// goroutine.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, scratch: make([]*Scratch, workers)}
	for i := range p.scratch {
		p.scratch[i] = &Scratch{}
	}
	return p
}

// Workers reports the pool width.
func (p *Pool) Workers() int { return p.workers }

// Scratch returns worker w's arena (0 <= w < Workers()), so the goroutine
// that holds the pool can collect, outside Run, what its workers left on
// their Aux.
func (p *Pool) Scratch(w int) *Scratch { return p.scratch[w] }

// Run invokes fn(scratch, i) for every i in [0, n), sharding the index
// space into contiguous chunks, one per worker. fn must confine its
// writes to per-index data (plus its scratch); it must not touch state
// shared across indices. Run returns when every index has been
// processed.
func (p *Pool) Run(n int, fn func(s *Scratch, i int)) {
	if n <= 0 {
		return
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := p.scratch[0]
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	// Contiguous chunks: worker w handles [w*chunk+min(w,rem) ...), so
	// chunk sizes differ by at most one.
	chunk := n / workers
	rem := n % workers
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w*chunk + min(w, rem)
		hi := lo + chunk
		if w < rem {
			hi++
		}
		go func(s *Scratch, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(s, i)
			}
		}(p.scratch[w], lo, hi)
	}
	wg.Wait()
}
