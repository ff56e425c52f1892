package solver

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/model"
)

// Graph is the paper's explicit graph representation G(I) of Section 4.1:
// for every slot t and configuration x a vertex pair v↑_{t,x} → v↓_{t,x}
// connected by an operating-cost edge of weight g_t(x); power-up edges of
// weight β_j between v↑ neighbours; free power-down edges between v↓
// neighbours; and free slot-transition edges v↓_{t,x} → v↑_{t+1,x}.
//
// The production solver never materialises this graph (see dp.go); Graph
// exists as the paper-faithful reference implementation — a differential
// oracle for the DP — and to render Figure 4. Its size is
// 2T·Π_j(m_j+1) vertices, so callers should keep instances small.
type Graph struct {
	Ins  *model.Instance
	Grid *grid.Grid // configuration lattice (shared across slots)

	// Vertices are indexed by (t, s, cfgIdx) with s ∈ {up, down}:
	// index = ((t-1)*2 + s) * Grid.Size() + cfgIdx.
	NumVertices int
	Edges       []Edge

	adj [][]int32 // adjacency: vertex → edge indices
}

// Edge is a weighted directed edge of G(I).
type Edge struct {
	From, To int
	Weight   float64
	// Kind documents which gadget the edge belongs to: "op" (operating
	// cost), "up" (power-up, weight β_j), "down" (free power-down), or
	// "next" (slot transition).
	Kind string
	Type int // server type for up/down edges, -1 otherwise
}

const (
	dirUp   = 0
	dirDown = 1
)

// BuildGraph materialises G(I) for an instance with static fleet sizes.
func BuildGraph(ins *model.Instance) (*Graph, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	if ins.TimeVarying() {
		return nil, fmt.Errorf("solver: BuildGraph supports static sizes only (Section 4.3 removes vertices per slot; use Solve)")
	}
	m := make([]int, ins.D())
	for j, st := range ins.Types {
		m[j] = st.Count
	}
	g := grid.NewFull(m)
	T := ins.T()
	gr := &Graph{
		Ins:         ins,
		Grid:        g,
		NumVertices: 2 * T * g.Size(),
	}
	eval := model.NewEvaluator(ins)
	cfg := make(model.Config, ins.D())

	for t := 1; t <= T; t++ {
		eval.PrepareSlot(t)
		for idx := 0; idx < g.Size(); idx++ {
			g.Decode(idx, cfg)
			// Operating edge v↑ → v↓.
			gr.Edges = append(gr.Edges, Edge{
				From:   gr.Vertex(t, dirUp, idx),
				To:     gr.Vertex(t, dirDown, idx),
				Weight: eval.GPrepared(cfg),
				Kind:   "op",
				Type:   -1,
			})
			// Power-up and power-down edges along each dimension.
			for j := 0; j < ins.D(); j++ {
				if cfg[j] >= m[j] {
					continue
				}
				nIdx := idx + g.Stride(j) // one more server of type j
				gr.Edges = append(gr.Edges, Edge{
					From:   gr.Vertex(t, dirUp, idx),
					To:     gr.Vertex(t, dirUp, nIdx),
					Weight: ins.Types[j].SwitchCost,
					Kind:   "up",
					Type:   j,
				})
				gr.Edges = append(gr.Edges, Edge{
					From:   gr.Vertex(t, dirDown, nIdx),
					To:     gr.Vertex(t, dirDown, idx),
					Weight: 0,
					Kind:   "down",
					Type:   j,
				})
			}
			// Slot transition v↓_{t,x} → v↑_{t+1,x}.
			if t < T {
				gr.Edges = append(gr.Edges, Edge{
					From:   gr.Vertex(t, dirDown, idx),
					To:     gr.Vertex(t+1, dirUp, idx),
					Weight: 0,
					Kind:   "next",
					Type:   -1,
				})
			}
		}
	}

	gr.adj = make([][]int32, gr.NumVertices)
	for i, e := range gr.Edges {
		gr.adj[e.From] = append(gr.adj[e.From], int32(i))
	}
	return gr, nil
}

// Vertex returns the index of v^dir_{t,x} for lattice index cfgIdx.
func (g *Graph) Vertex(t, dir, cfgIdx int) int {
	return ((t-1)*2+dir)*g.Grid.Size() + cfgIdx
}

// ShortestPath computes a shortest v↑_{1,0} → v↓_{T,0} path and returns
// its cost and the corresponding schedule (the configurations of the "op"
// edges along the path). Edge weights are non-negative and the graph is
// acyclic along time but cyclic within a layer only through paired up/down
// chains, which are acyclic per direction; Bellman–Ford-style relaxation
// over a topological-ish sweep would do, but the graph is small by
// construction, so plain Dijkstra without a heap (O(V²)) keeps the code
// transparent.
func (g *Graph) ShortestPath() (float64, model.Schedule, error) {
	start := g.Vertex(1, dirUp, 0)
	zeroIdx, ok := g.Grid.Encode(make([]int, g.Ins.D()))
	if !ok {
		return 0, nil, fmt.Errorf("solver: zero configuration missing from lattice")
	}
	goal := g.Vertex(g.Ins.T(), dirDown, zeroIdx)

	dist := make([]float64, g.NumVertices)
	prevEdge := make([]int32, g.NumVertices)
	visited := make([]bool, g.NumVertices)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	dist[start] = 0
	for {
		u, best := -1, math.Inf(1)
		for v := 0; v < g.NumVertices; v++ {
			if !visited[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 || u == goal {
			break
		}
		visited[u] = true
		for _, ei := range g.adj[u] {
			e := g.Edges[ei]
			if nd := dist[u] + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				prevEdge[e.To] = ei
			}
		}
	}
	if math.IsInf(dist[goal], 1) {
		return 0, nil, fmt.Errorf("solver: no finite path (infeasible instance)")
	}

	// Walk back collecting the op edges.
	sched := make(model.Schedule, g.Ins.T())
	for v := goal; v != start; {
		ei := prevEdge[v]
		if ei < 0 {
			return 0, nil, fmt.Errorf("solver: broken shortest-path chain")
		}
		e := g.Edges[ei]
		if e.Kind == "op" {
			t := e.From/(2*g.Grid.Size()) + 1
			cfg := make(model.Config, g.Ins.D())
			g.Grid.Decode(e.From%(2*g.Grid.Size())%g.Grid.Size(), cfg)
			sched[t-1] = cfg
		}
		v = e.From
	}
	return dist[goal], sched, nil
}
