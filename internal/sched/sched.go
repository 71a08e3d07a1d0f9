// Package sched is a task-graph runtime for wave-front temporal blocking:
// the space-time tiles (bx, by, k) of one WTB time tile become tasks with
// atomic dependency counters, and tasks whose counters hit zero drain
// through the persistent internal/par pool with no global barriers. The
// paper's Listing 6 walks the skewed tiles sequentially; Malas et al.
// (multicore wavefront diamond blocking) show the same tiles may execute
// concurrently once the inter-tile dependencies are made explicit — that
// graph is what TileGraph encodes.
//
// # Dependency edges
//
// Two edge sets cover the repository's propagators, selected by sameStep:
//
//   - Ping-pong buffers (acoustic, TTI: MaxPhaseOffset() == 0). Local step
//     k of a tile reads level k−1 values from its own footprint plus a
//     skew-wide halo reaching one tile left/up. Predecessors of (bx, by, k):
//
//     (bx, by, k−1)  own    (bx−1, by, k−1)  left
//     (bx, by−1, k−1) up    (bx−1, by−1, k−1) diag
//
//     The diagonal edge is NOT transitively implied — left and up
//     predecessors of (bx,by,k) sit at k−1 and do not depend on
//     (bx−1,by−1,k−1) at the same level. No same-step edges exist: at a
//     fixed k, distinct tiles write disjoint regions of the same buffer
//     and read only the other buffer.
//
//   - In-place two-level updates (elastic: MaxPhaseOffset() > 0). Phases
//     update their fields in place, so a tile's step k overwrites values
//     its right/down neighbours still need at step k — the classic WTB
//     anti-dependency, resolved in Listing 6 by the lexicographic order.
//     Predecessors of (bx, by, k):
//
//     (bx, by, k−1)  own    (bx−1, by, k)  left    (bx, by−1, k)  up
//
//     The same-step left/up edges are sharp (the skewed footprints
//     overlap by exactly the phase offset), while diagonal-same-step is
//     transitively implied by left∘up.
//
// Any execution respecting these edges performs the exact same kernel
// invocations on the exact same points as the sequential schedule, and
// every grid point is written by exactly one task per time level, so
// results are bitwise identical regardless of interleaving — the property
// internal/verify asserts, and the reason FaultDropEdge exists: dropping
// one edge class must produce divergence the oracle catches, proving each
// edge is load-bearing rather than conservative.
package sched

import (
	"sync"
	"sync/atomic"

	"wavetile/internal/obs"
	"wavetile/internal/par"
)

// EdgeClass names one class of dependency edge in a TileGraph.
type EdgeClass int

// Edge classes. EdgeDiag exists only in ping-pong (sameStep == false)
// graphs; EdgeLeft/EdgeUp connect same-k tiles in in-place graphs and
// (k−1)-level tiles in ping-pong graphs.
const (
	EdgeNone EdgeClass = iota
	EdgeOwn            // (bx, by, k−1)
	EdgeLeft           // (bx−1, by, k) in-place; (bx−1, by, k−1) ping-pong
	EdgeUp             // (bx, by−1, k) in-place; (bx, by−1, k−1) ping-pong
	EdgeDiag           // (bx−1, by−1, k−1), ping-pong only
)

func (e EdgeClass) String() string {
	switch e {
	case EdgeNone:
		return "none"
	case EdgeOwn:
		return "own"
	case EdgeLeft:
		return "left"
	case EdgeUp:
		return "up"
	case EdgeDiag:
		return "diag"
	}
	return "?"
}

// FaultDropEdge removes one dependency-edge class from graphs built while
// it is set. It exists solely for the differential-verification harness
// (internal/verify), which uses it to prove every edge class is sharp: a
// graph missing an edge must produce results the schedule-equivalence
// oracle flags. Graphs built under a fault run in a deterministic
// adversarial order that executes racy tasks before the predecessor the
// dropped edge would have ordered them after, so the violation manifests
// even on one worker. Production code must leave it EdgeNone; it must not
// be mutated while graphs are being built or run.
var FaultDropEdge EdgeClass

// TileGraph is the dependency graph of one WTB time tile: nbx×nby space
// tiles each carried through tt local steps. Build one per time tile with
// NewTileGraph and execute it with Run; graphs are single-use.
type TileGraph struct {
	nbx, nby, tt int
	sameStep     bool // in-place edge set (left/up at same k) vs ping-pong
	drop         EdgeClass
	empty        []bool // tasks outside the domain: flow through the graph, skip exec
	indeg        []atomic.Int32
}

// NewTileGraph builds the dependency graph for an nbx×nby×tt tile block.
// sameStep selects the in-place edge set (propagators with
// MaxPhaseOffset() > 0); empty reports tiles that cannot intersect the
// domain (they still flow through the graph so successor counters stay
// uniform, but their execution is skipped). empty may be nil.
func NewTileGraph(nbx, nby, tt int, sameStep bool, empty func(bx, by, k int) bool) *TileGraph {
	n := nbx * nby * tt
	g := &TileGraph{
		nbx: nbx, nby: nby, tt: tt,
		sameStep: sameStep,
		drop:     FaultDropEdge,
		empty:    make([]bool, n),
		indeg:    make([]atomic.Int32, n),
	}
	for k := 0; k < tt; k++ {
		for bx := 0; bx < nbx; bx++ {
			for by := 0; by < nby; by++ {
				id := g.id(bx, by, k)
				if empty != nil {
					g.empty[id] = empty(bx, by, k)
				}
				d := int32(0)
				count := func(px, py, pk int, class EdgeClass) {
					if class != g.drop && px >= 0 && py >= 0 && pk >= 0 {
						d++
					}
				}
				count(bx, by, k-1, EdgeOwn)
				if sameStep {
					count(bx-1, by, k, EdgeLeft)
					count(bx, by-1, k, EdgeUp)
				} else {
					count(bx-1, by, k-1, EdgeLeft)
					count(bx, by-1, k-1, EdgeUp)
					count(bx-1, by-1, k-1, EdgeDiag)
				}
				g.indeg[id].Store(d)
			}
		}
	}
	return g
}

// Tasks returns the total task count nbx·nby·tt (empty tasks included).
func (g *TileGraph) Tasks() int { return g.nbx * g.nby * g.tt }

// id encodes (bx, by, k) so that ascending order at fixed k is the
// lexicographic (bx, by) order of Listing 6 — the serial runner pops in
// ascending order and therefore reproduces the paper's tile order exactly.
func (g *TileGraph) id(bx, by, k int) int { return (k*g.nbx+bx)*g.nby + by }

// Coords decodes a task id.
func (g *TileGraph) Coords(id int) (bx, by, k int) {
	by = id % g.nby
	bx = (id / g.nby) % g.nbx
	k = id / (g.nby * g.nbx)
	return
}

// metrics holds the scheduler's obs instruments; nil when obs is off.
type metrics struct {
	tasks, emptyTasks, steals, stalls, chained *obs.Counter
	ready                                      *obs.Gauge
	fl                                         *obs.Flight
}

func newMetrics() *metrics {
	r := obs.Active()
	if r == nil {
		return nil
	}
	return &metrics{
		tasks:      r.Counter("sched_tasks"),
		emptyTasks: r.Counter("sched_tasks_empty"),
		steals:     r.Counter("sched_steals"),
		stalls:     r.Counter("sched_stalls"),
		chained:    r.Counter("sched_chained"),
		ready:      r.Gauge("sched_ready"),
		fl:         r.Flight(),
	}
}

// Run executes every task of the graph in dependency order. exec is called
// once per non-empty task with the index of the executing worker
// (0 ≤ worker < workers); it must be safe for concurrent calls on distinct
// tasks. Run returns when all tasks (and their exec calls) have completed.
//
// workers ≤ 1 runs a serial schedule that chains each tile through its
// local steps in exactly the lexicographic order of the paper's Listing 6:
// it is tiling's WTB kind, and what the pipelined kind degrades to on one
// worker — the sequential schedule itself, not a slower shuffle of it.
// Graphs built under FaultDropEdge run a deterministic single-threaded
// adversarial order instead (see FaultDropEdge).
func (g *TileGraph) Run(workers int, exec func(worker, bx, by, k int)) {
	if g.Tasks() == 0 {
		return
	}
	m := newMetrics()
	switch {
	case g.drop != EdgeNone:
		g.runAdversarial(m, exec)
	case workers <= 1:
		g.runSerial(m, exec)
	default:
		g.runParallel(m, workers, exec)
	}
}

// execOne runs a single task (skipping empty ones) and counts it.
func (g *TileGraph) execOne(m *metrics, w, id int, exec func(worker, bx, by, k int)) {
	if g.empty[id] {
		if m != nil {
			m.emptyTasks.Add(1)
		}
		return
	}
	if m != nil {
		m.tasks.Add(1)
	}
	bx, by, k := g.Coords(id)
	exec(w, bx, by, k)
}

// forReadySuccs decrements the dependency counters of id's successors and
// calls visit for each that becomes ready; own reports whether the ready
// successor is the same tile at k+1 (the cache-friendly chain candidate).
func (g *TileGraph) forReadySuccs(id int, visit func(succ int, own bool)) {
	bx, by, k := g.Coords(id)
	dec := func(sx, sy, sk int, class EdgeClass) {
		if class == g.drop || sx >= g.nbx || sy >= g.nby || sk >= g.tt {
			return
		}
		s := g.id(sx, sy, sk)
		if g.indeg[s].Add(-1) == 0 {
			visit(s, class == EdgeOwn)
		}
	}
	dec(bx, by, k+1, EdgeOwn)
	if g.sameStep {
		dec(bx+1, by, k, EdgeLeft)
		dec(bx, by+1, k, EdgeUp)
	} else {
		dec(bx+1, by+1, k+1, EdgeDiag)
		dec(bx+1, by, k+1, EdgeLeft)
		dec(bx, by+1, k+1, EdgeUp)
	}
}

// runSerial drains the graph on the calling goroutine. Ready tasks are
// kept on a LIFO stack seeded in reverse id order, and a completed task
// chains directly into its own-(k+1) successor when that successor became
// ready — together these give the exact for-bx/for-by/for-k order of
// Listing 6, and with it the sequential schedule's cache behaviour.
func (g *TileGraph) runSerial(m *metrics, exec func(worker, bx, by, k int)) {
	n := g.Tasks()
	stack := make([]int32, 0, g.nbx*g.nby)
	for id := n - 1; id >= 0; id-- {
		if g.indeg[id].Load() == 0 {
			stack = append(stack, int32(id))
		}
	}
	for len(stack) > 0 {
		id := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for id >= 0 {
			g.execOne(m, 0, id, exec)
			next := -1
			g.forReadySuccs(id, func(s int, own bool) {
				if own {
					next = s
				} else {
					stack = append(stack, int32(s))
				}
			})
			if next >= 0 && m != nil {
				m.chained.Add(1)
			}
			id = next
		}
	}
}

// runAdversarial executes the graph single-threaded in a deterministic
// order chosen to be as hostile as possible to the dropped edge class:
// among ready tasks it prefers one whose dropped predecessor has not yet
// executed, so the reordering the missing edge permits actually happens
// (a naive max-id or min-id order can coincidentally respect a dropped
// edge through the remaining edges and mask the fault). Used only by the
// verification harness via FaultDropEdge.
func (g *TileGraph) runAdversarial(m *metrics, exec func(worker, bx, by, k int)) {
	n := g.Tasks()
	completed := make([]bool, n)
	var ready []int32
	for id := 0; id < n; id++ {
		if g.indeg[id].Load() == 0 {
			ready = append(ready, int32(id))
		}
	}
	for len(ready) > 0 {
		pick := -1
		for i, id := range ready {
			if g.droppedPredPending(int(id), completed) {
				pick = i
				break
			}
		}
		if pick < 0 {
			pick = 0
			for i := 1; i < len(ready); i++ {
				if g.fallbackBefore(int(ready[i]), int(ready[pick])) {
					pick = i
				}
			}
		}
		id := int(ready[pick])
		ready[pick] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		g.execOne(m, 0, id, exec)
		completed[id] = true
		g.forReadySuccs(id, func(s int, _ bool) {
			ready = append(ready, int32(s))
		})
	}
}

// fallbackBefore orders the ready set when no racy task exists yet; its
// job is to *manufacture* a racy task by delaying the dropped-edge
// predecessors as long as possible. For ping-pong left (pred (bx−1,by,k−1))
// the order sweeps columns right-to-left with ascending by inside a
// column, so the diagonal predecessor (bx−1,by−1,k−1) of a task completes
// before its left predecessor (bx−1,by,k−1); ping-pong up is the
// transpose. Every other class is exposed by descending id (for diag,
// (0,0,k−1) then executes after the left/up predecessors it under-cuts;
// for own and the in-place classes the racy-preference rule alone already
// fires on the initially ready set).
func (g *TileGraph) fallbackBefore(a, b int) bool {
	ax, ay, ak := g.Coords(a)
	bx, by, bk := g.Coords(b)
	if !g.sameStep {
		switch g.drop {
		case EdgeLeft:
			if ax != bx {
				return ax > bx
			}
			if ay != by {
				return ay < by
			}
			return ak < bk
		case EdgeUp:
			if ay != by {
				return ay > by
			}
			if ax != bx {
				return ax < bx
			}
			return ak < bk
		}
	}
	return a > b
}

// droppedPredPending reports whether id's predecessor along the dropped
// edge class exists and has not executed yet — i.e. executing id now
// violates the order the dropped edge would have enforced.
func (g *TileGraph) droppedPredPending(id int, completed []bool) bool {
	bx, by, k := g.Coords(id)
	px, py, pk := bx, by, k
	switch g.drop {
	case EdgeOwn:
		pk = k - 1
	case EdgeLeft:
		px = bx - 1
		if !g.sameStep {
			pk = k - 1
		}
	case EdgeUp:
		py = by - 1
		if !g.sameStep {
			pk = k - 1
		}
	case EdgeDiag:
		if g.sameStep {
			return false
		}
		px, py, pk = bx-1, by-1, k-1
	default:
		return false
	}
	if px < 0 || py < 0 || pk < 0 {
		return false
	}
	return !completed[g.id(px, py, pk)]
}

// ---------------------------------------------------------------------------
// Parallel runner

// deque is one worker's ready-task queue: the owner pushes and pops at the
// tail (LIFO, preserving the serial runner's depth-first cache order),
// thieves take from the head (FIFO, stealing the oldest — most independent
// — work). Graphs are small (tens to thousands of tasks), so a mutex per
// operation is far below the cost of one tile step.
type deque struct {
	mu  sync.Mutex
	buf []int32
}

func (d *deque) push(id int32) {
	d.mu.Lock()
	d.buf = append(d.buf, id)
	d.mu.Unlock()
}

func (d *deque) popTail() (int32, bool) {
	d.mu.Lock()
	n := len(d.buf)
	if n == 0 {
		d.mu.Unlock()
		return 0, false
	}
	id := d.buf[n-1]
	d.buf = d.buf[:n-1]
	d.mu.Unlock()
	return id, true
}

func (d *deque) stealHead() (int32, bool) {
	d.mu.Lock()
	if len(d.buf) == 0 {
		d.mu.Unlock()
		return 0, false
	}
	id := d.buf[0]
	d.buf = d.buf[1:]
	d.mu.Unlock()
	return id, true
}

// parRun is the state of one parallel graph execution.
type parRun struct {
	g    *TileGraph
	m    *metrics
	exec func(worker, bx, by, k int)
	dq   []deque

	pending   atomic.Int64 // tasks pushed to deques and not yet claimed
	remaining atomic.Int64 // tasks not yet completed

	mu       sync.Mutex
	cond     *sync.Cond
	sleepers int
	done     bool
}

// runParallel drains the graph across workers worker loops driven by the
// persistent par pool. Ready tasks live on per-worker deques; idle workers
// steal, then park on a condition variable. The park protocol is
// lost-wakeup-free: a parker re-checks pending under the mutex before
// waiting, and a producer increments pending before taking the mutex to
// broadcast, so either the parker sees the new task or the producer sees
// the sleeper.
func (g *TileGraph) runParallel(m *metrics, workers int, exec func(worker, bx, by, k int)) {
	r := &parRun{g: g, m: m, exec: exec, dq: make([]deque, workers)}
	r.cond = sync.NewCond(&r.mu)
	r.remaining.Store(int64(g.Tasks()))
	seeds := 0
	for id, n := 0, g.Tasks(); id < n; id++ {
		if g.indeg[id].Load() == 0 {
			r.dq[seeds%workers].push(int32(id))
			seeds++
		}
	}
	r.pending.Store(int64(seeds))
	// ForWorkers may run several drain iterations on one goroutine when the
	// pool is busy; that is safe — worker ids are unique per goroutine, a
	// drain exits only once every task completed, and the steal scan covers
	// deques whose nominal owner never ran.
	par.ForWorkers(workers, func(w, _ int) { r.drain(w) })
}

// drain is one worker's scheduling loop: pop own tail, else steal, else
// park until new work is produced or the run completes.
func (r *parRun) drain(w int) {
	for {
		id, ok := r.dq[w].popTail()
		if !ok {
			id, ok = r.steal(w)
		}
		if !ok {
			if !r.park(w) {
				return
			}
			continue
		}
		if n := r.pending.Add(-1); r.m != nil {
			r.m.ready.Set(n)
		}
		r.runChain(w, id)
	}
}

func (r *parRun) steal(w int) (int32, bool) {
	for i := 1; i < len(r.dq); i++ {
		if id, ok := r.dq[(w+i)%len(r.dq)].stealHead(); ok {
			if r.m != nil {
				r.m.steals.Add(1)
			}
			return id, true
		}
	}
	return 0, false
}

// park blocks until pending work appears or the run is done; it returns
// false when the worker should exit. The stall counter measures how often
// workers ran dry — the scheduler's analogue of barrier idle time.
func (r *parRun) park(w int) bool {
	r.mu.Lock()
	for r.pending.Load() == 0 && !r.done {
		r.sleepers++
		if r.m != nil {
			r.m.stalls.Add(1)
			r.m.fl.Event("sched stall", "sched", map[string]any{"worker": w, "sleepers": r.sleepers})
		}
		r.cond.Wait()
		r.sleepers--
	}
	done := r.done
	r.mu.Unlock()
	return !done
}

// runChain executes a claimed task and chains through its own-(k+1)
// successors while they are ready, exactly like the serial runner. A panic
// in exec marks the run done (releasing parked workers) before
// propagating, so the pool's panic plumbing re-raises it at the caller
// instead of deadlocking.
func (r *parRun) runChain(w int, id int32) {
	defer func() {
		if p := recover(); p != nil {
			r.mu.Lock()
			r.done = true
			r.cond.Broadcast()
			r.mu.Unlock()
			panic(p)
		}
	}()
	for t := int(id); t >= 0; {
		r.g.execOne(r.m, w, t, r.exec)
		t = r.complete(w, t)
	}
}

// complete retires a task: successors that became ready are pushed to the
// executing worker's deque (waking sleepers), except the own-(k+1)
// successor, which is returned for inline chaining. The last completion
// marks the run done and releases every parked worker.
func (r *parRun) complete(w, id int) int {
	next := -1
	pushed := 0
	r.g.forReadySuccs(id, func(s int, own bool) {
		if own {
			next = s
			return
		}
		r.dq[w].push(int32(s))
		pushed++
	})
	if pushed > 0 {
		if n := r.pending.Add(int64(pushed)); r.m != nil {
			r.m.ready.Set(n)
		}
		r.mu.Lock()
		if r.sleepers > 0 {
			r.cond.Broadcast()
		}
		r.mu.Unlock()
	}
	if next >= 0 && r.m != nil {
		r.m.chained.Add(1)
	}
	if r.remaining.Add(-1) == 0 {
		r.mu.Lock()
		r.done = true
		r.cond.Broadcast()
		r.mu.Unlock()
	}
	return next
}
