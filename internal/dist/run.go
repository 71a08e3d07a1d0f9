package dist

import (
	"sync"
	"sync/atomic"
	"time"

	"wavetile/internal/grid"
	"wavetile/internal/obs"
	"wavetile/internal/tiling"
)

// Run advances the whole cluster through the geometry's time axis.
//
// Each rank is one persistent goroutine for the entire run (not one per
// time tile), and there is no global barrier: neighbouring ranks
// synchronize pairwise through per-edge staging buffers with a
// one-token ready/free handshake, so a rank may run one time tile ahead
// of a neighbour that is still finishing. In DeepHalo mode the in-rank
// schedule is the pipelined task graph (tiling.WTBPipelined), and each
// outgoing edge is packed from the executor's per-task hook the moment the
// last tile writing its boundary planes completes — overlapping the halo
// exchange with the interior compute that is still draining.
//
// Every owned point still computes the same expression from the same
// inputs as a single-domain run (packing is read-only and the task graph
// orders every write that precedes it), so results remain bitwise
// identical — asserted by the package tests against single-domain runs.
func (c *Cluster) Run() error {
	nt := c.geom.Nt
	if len(c.ranks) == 1 {
		return c.ranks[0].advance(c, 0, nt, nil) // nothing to exchange with
	}

	edges := c.buildEdges()
	abort := make(chan struct{})
	var failOnce sync.Once
	var firstErr error
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			close(abort)
		})
	}
	var wg sync.WaitGroup
	for i := range c.ranks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.runRank(i, edges[i], abort); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// runRank is one rank's persistent loop: compute a time tile (packing
// boundary planes early via the task-graph hook), flush any packs the
// hook could not complete, then consume the neighbours' planes.
func (c *Cluster) runRank(i int, es rankEdges, abort <-chan struct{}) error {
	r := c.ranks[i]
	nt := c.geom.Nt
	for t0 := 0; t0 < nt; t0 += c.depth {
		tNext := t0 + c.depth
		var onTask func(bx, by, k int)
		if c.depth > 1 && len(es.packs) > 0 {
			for _, p := range es.packs {
				p.reset()
			}
			onTask = func(bx, by, k int) {
				for _, p := range es.packs {
					p.onTask(c, bx, k, tNext)
				}
			}
		}
		if err := r.advance(c, t0, tNext, onTask); err != nil {
			return err
		}
		// Flush: edges whose boundary set never drained through the hook
		// (PerStep mode, hook found the staging busy, or an all-empty
		// boundary set) are packed here, after the tile's last write.
		for _, p := range es.packs {
			if p.packed {
				continue
			}
			select {
			case <-p.e.free:
			case <-abort:
				return nil
			}
			c.pack(p.e, tNext)
			p.e.ready <- struct{}{}
		}
		for _, e := range es.in {
			select {
			case <-e.ready:
			case <-abort:
				return nil
			}
			c.unpack(e, tNext)
			e.free <- struct{}{}
		}
	}
	return nil
}

// advance computes timesteps [t0, t1) on one rank's slab grid. PerStep is
// plain spatial steps over the whole slab (halo columns included — they are
// corrected by the exchange). DeepHalo runs the pipelined wave-front
// schedule inside the slab in time tiles of `depth` steps: halo columns
// decay into staleness at `skew` cells per step, and the halo is exactly
// deep enough that the owned region never reads a stale value.
func (r *rank) advance(c *Cluster, t0, t1 int, onTask func(bx, by, k int)) error {
	kind := tiling.WTBPipelined
	if c.depth == 1 {
		kind = tiling.Spatial // reads only the block shape of the config
	}
	return tiling.Run(r.prop, kind, c.wtbConfig(r), t0, t1, onTask)
}

// wtbConfig is the in-rank WTB configuration. Config.TileX splits the
// slab into tile columns so boundary tiles can finish (and pack) ahead of
// the interior; unset, the whole slab is one column and no overlap is
// possible — the pre-task-graph behaviour.
func (c *Cluster) wtbConfig(r *rank) tiling.Config {
	cfg := tiling.Config{
		TT:     c.depth,
		TileX:  c.cfg.TileX,
		TileY:  c.cfg.TileY,
		BlockX: c.cfg.BlockX,
		BlockY: c.cfg.BlockY,
	}
	if cfg.TileX < 2*c.skew {
		cfg.TileX = max(r.nx, 2*c.skew)
	}
	if cfg.TileY < 2*c.skew {
		cfg.TileY = c.geom.Ny
	}
	return cfg
}

// ---------------------------------------------------------------------------
// Edges

// edge is one direction of a neighbour exchange: src's owned boundary
// planes staged for dst. A single token circulates through ready/free, so
// sends never block: free means dst has consumed the staging and src may
// repack it; ready means src has packed and dst may unpack. Ranks
// therefore drift at most one time tile apart, synchronizing only with
// neighbours instead of a global barrier.
type edge struct {
	src, dst *rank
	gxs      []int       // global x planes valid on both slabs
	planes   [][]float32 // staged copies, one per (buffer, plane)
	ready    chan struct{}
	free     chan struct{}
}

// rankEdges groups one rank's incoming edges and outgoing pack plans.
type rankEdges struct {
	in    []*edge
	packs []*packPlan
}

// packPlan schedules one outgoing edge's pack. match marks the (bx, k)
// space-time tiles whose final-level writes touch the edge planes; n
// counts down the non-empty matching tasks, and the task that takes it to
// zero packs immediately — every write the pack reads is then complete,
// because any earlier write to those planes is ordered before some
// matching task by the graph's own/left chains.
type packPlan struct {
	e      *edge
	tt     int
	match  []bool // [bx*tt + k]
	count  int32
	n      atomic.Int32
	packed bool // written by the zero-hitting task, read after the graph drains
}

func (p *packPlan) reset() {
	p.n.Store(p.count)
	p.packed = false
}

// onTask is the per-task hook body: the task completing the boundary set
// packs the edge if the staging is free, and signals it ready. If the
// neighbour still holds the staging (it is a full tile behind), the pack
// falls to the post-advance flush rather than blocking a compute worker.
func (p *packPlan) onTask(c *Cluster, bx, k, tNext int) {
	if !p.match[bx*p.tt+k] || p.n.Add(-1) != 0 {
		return
	}
	select {
	case <-p.e.free:
		c.pack(p.e, tNext)
		p.e.ready <- struct{}{}
		p.packed = true
	default:
	}
}

// buildEdges constructs the staging edges and pack plans for every rank.
func (c *Cluster) buildEdges() []rankEdges {
	es := make([]rankEdges, len(c.ranks))
	for i := 0; i < len(c.ranks)-1; i++ {
		l, rr := c.ranks[i], c.ranks[i+1]
		// Left rank's owned right edge → right rank's left halo.
		right := c.newEdge(l, rr, l.x1-l.halo, l.x1)
		// Right rank's owned left edge → left rank's right halo.
		left := c.newEdge(rr, l, rr.x0, rr.x0+rr.halo)
		es[i].packs = append(es[i].packs, c.newPackPlan(right))
		es[i].in = append(es[i].in, left)
		es[i+1].packs = append(es[i+1].packs, c.newPackPlan(left))
		es[i+1].in = append(es[i+1].in, right)
	}
	return es
}

// newEdge stages the global x planes [g0, g1) from src's grids into dst.
// Planes outside either slab are dropped here, preserving the bounds
// behaviour of the old in-place plane copy.
func (c *Cluster) newEdge(src, dst *rank, g0, g1 int) *edge {
	e := &edge{src: src, dst: dst,
		ready: make(chan struct{}, 1), free: make(chan struct{}, 1)}
	for gx := g0; gx < g1; gx++ {
		if sx := gx - src.lox; sx < 0 || sx >= src.nx {
			continue
		}
		if dx := gx - dst.lox; dx < 0 || dx >= dst.nx {
			continue
		}
		e.gxs = append(e.gxs, gx)
	}
	sx := src.prop.U[0].SX
	for b := 0; b < c.bufCount(); b++ {
		for range e.gxs {
			e.planes = append(e.planes, make([]float32, sx))
		}
	}
	e.free <- struct{}{} // staging starts consumable
	return e
}

// newPackPlan computes which space-time tiles of a time tile write the
// edge's planes at the exchanged levels. The tile layout is identical for
// every (full) time tile, so the plan is built once per Run.
func (c *Cluster) newPackPlan(e *edge) *packPlan {
	p := &packPlan{e: e, tt: c.depth}
	if c.depth == 1 || len(e.gxs) == 0 {
		return p // PerStep (or degenerate edge): flush-packed after advance
	}
	r := e.src
	tg := tiling.NewTileGrid(r.prop, c.wtbConfig(r), c.depth)
	e0 := e.gxs[0] - r.lox
	e1 := e.gxs[len(e.gxs)-1] + 1 - r.lox
	p.match = make([]bool, tg.NBX*c.depth)
	// The exchanged buffers hold the levels written at k = tt−1, tt−2, …
	// (one level per exchanged buffer).
	for b := 0; b < c.bufCount(); b++ {
		k := c.depth - 1 - b
		for bx := 0; bx < tg.NBX; bx++ {
			raw := tg.Raw(bx, 0, k)
			lo, hi := max(raw.X0, 0), min(raw.X1, r.nx)
			if lo >= e1 || hi <= e0 {
				continue
			}
			for by := 0; by < tg.NBY; by++ {
				if !tg.Empty(bx, by, k) {
					p.match[bx*c.depth+k] = true
					p.count++
				}
			}
		}
	}
	return p
}

// bufCount is how many wavefield buffers an exchange refreshes: both live
// buffers in DeepHalo mode (their halos are both stale after a deep tile),
// one in PerStep mode.
func (c *Cluster) bufCount() int {
	if c.depth > 1 {
		return 2
	}
	return 1
}

// buffers lists the buffer indices exchanged after reaching time tNext,
// most recent first: buffer tNext&1 holds tNext, buffer (tNext+1)&1 holds
// tNext−1. Pack and unpack iterate this identically, which is what keys
// the staging layout.
func (c *Cluster) buffers(tNext int) [2]int {
	return [2]int{tNext & 1, (tNext + 1) & 1}
}

// pack copies src's owned boundary planes into the edge staging. One pack
// runs per outgoing edge per exchange, so per-call obs lookups are cold.
func (c *Cluster) pack(e *edge, tNext int) {
	r := obs.Active()
	sp := r.Spans()
	var start time.Time
	if sp.On() {
		start = time.Now()
	}
	bufs := c.buffers(tNext)
	i := 0
	var bytes int
	for b := 0; b < c.bufCount(); b++ {
		u := e.src.prop.U[bufs[b]]
		for _, gx := range e.gxs {
			off := (gx - e.src.lox + u.H) * u.SX
			copy(e.planes[i], u.Data[off:off+u.SX])
			bytes += u.SX * 4
			i++
		}
	}
	if r != nil {
		r.Counter("dist_halo_packs").Add(1)
		r.Counter("dist_halo_bytes").Add(int64(bytes))
		if sp.On() {
			sp.Complete("halo pack", "dist", 0, start, time.Since(start),
				map[string]any{"t_next": tNext, "planes": i, "bytes": bytes})
		}
	}
}

// unpack copies staged planes into dst's halo.
func (c *Cluster) unpack(e *edge, tNext int) {
	r := obs.Active()
	sp := r.Spans()
	var start time.Time
	if sp.On() {
		start = time.Now()
	}
	bufs := c.buffers(tNext)
	i := 0
	for b := 0; b < c.bufCount(); b++ {
		u := e.dst.prop.U[bufs[b]]
		for _, gx := range e.gxs {
			off := (gx - e.dst.lox + u.H) * u.SX
			copy(u.Data[off:off+u.SX], e.planes[i])
			i++
		}
	}
	if r != nil {
		r.Counter("dist_halo_unpacks").Add(1)
		if sp.On() {
			sp.Complete("halo unpack", "dist", 0, start, time.Since(start),
				map[string]any{"t_next": tNext, "planes": i})
		}
	}
}

// GatherWavefield reconstructs the global wavefield at the final time index
// from the ranks' owned regions.
func (c *Cluster) GatherWavefield() *grid.Grid {
	out := grid.New(c.geom.Nx, c.geom.Ny, c.geom.Nz, 0)
	for _, r := range c.ranks {
		u := r.prop.Final()
		for gx := r.x0; gx < r.x1; gx++ {
			lx := gx - r.lox
			for y := 0; y < c.geom.Ny; y++ {
				copy(out.Row(gx, y), u.Row(lx, y))
			}
		}
	}
	return out
}

// Ranks reports the number of active ranks.
func (c *Cluster) Ranks() int { return len(c.ranks) }

// Exchanges reports how many halo exchanges a full run performs — the
// communication count the DeepHalo mode divides by depth.
func (c *Cluster) Exchanges() int { return c.geom.Nt / c.depth }
