// Package rollout holds the arenas the belief layer and the planner
// share. Both spend essentially all of their time advancing independent
// hypotheses ("rollouts") one after another on the caller's goroutine,
// and the buffers those advances clone and simulate into live on a
// Pool, so the inner loops allocate nothing and a fleet of senders
// (internal/fleet) grows one set of them rather than one per member.
//
// Determinism is load-bearing: every reduction the callers perform
// walks its hypotheses in index order, so a result depends on its
// inputs alone.
package rollout

// Pool is the arenas of the goroutine that holds it. The zero value is
// ready to use. A Pool must not be used from two goroutines at once;
// the single-goroutine sim loop guarantees that.
type Pool struct {
	// Aux carries the planner's arena: its per-call buffers, the
	// scratch its sweeps simulate into and its rollout memo.
	Aux any
	// Belief carries the belief update's arena on the same terms: the
	// buffers an update needs only while it runs, which every belief on
	// the pool shares.
	Belief any
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }
