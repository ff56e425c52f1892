// Package solver implements the offline algorithms of Section 4: the
// graph-based optimal algorithm (4.1), the (1+ε)-approximation on the
// γ-reduced graph (4.2), and their extension to time-varying data-center
// sizes (4.3).
//
// The paper's graph G(I) has, for every slot t and configuration x, a
// vertex pair (v↑, v↓) joined by an operating-cost edge g_t(x), plus
// power-up edges of weight β_j between neighbouring configurations and free
// power-down edges. A shortest v↑_{1,0} → v↓_{T,0} path is an optimal
// schedule. This package never materialises the graph: the shortest-path
// computation is a layered dynamic program whose transition
//
//	D_t[x] = g_t(x) + min_{x'} ( D_{t−1}[x'] + Σ_j β_j (x_j − x'_j)^+ )
//
// is evaluated one dimension at a time — a free-decrease suffix minimum
// plus a pay-per-level prefix minimum, exactly the reachability structure
// of the up/down edge gadget — in O(|M|·d) per slot instead of O(|M|²).
package solver

import (
	"math"

	"repro/internal/grid"
)

// relaxer performs the min-plus transition between consecutive DP layers,
// including between different lattices (time-varying sizes or γ-reduction
// with per-slot counts). It owns the ping-pong scratch buffers and
// relaxDimSame's table of β_j·v, plus the per-cell lower bounds of the
// tracker's pruning pass (prune.go).
type relaxer struct {
	betas []float64    // β_j per dimension
	bufs  [4][]float64 // scratch: two sweeps, β_j·v, LB
	shape []int        // current mixed shape during a sweep
}

func newRelaxer(betas []float64) *relaxer {
	return &relaxer{betas: betas, shape: make([]int, len(betas))}
}

// scratch returns scratch buffer i resized to n elements. The buffers
// share one allocation, regrown together: a sweep that outgrows one
// keeps reading the old array through its own slice header.
func (r *relaxer) scratch(i, n int) []float64 {
	if cap(r.bufs[i]) < n {
		c := n
		for _, b := range r.bufs {
			c = max(c, cap(b))
		}
		arena := make([]float64, len(r.bufs)*c)
		for k := range r.bufs {
			r.bufs[k] = arena[k*c : (k+1)*c : (k+1)*c]
		}
	}
	return r.bufs[i][:n]
}

// relax returns, for every configuration x of the `to` lattice,
//
//	min_{x' ∈ from} prev[x'] + Σ_j β_j (x_j − x'_j)^+ .
//
// prev is indexed by the `from` lattice. The result is written into dst
// (resized as needed) and returned. prev is left untouched.
//
// The sweep rewrites one dimension at a time: after processing dimension j
// the intermediate array is indexed by `to` levels in dimensions <= j and
// `from` levels in dimensions > j. Correctness follows from the switching
// cost being separable across dimensions: the inner min over x'_j for fixed
// other coordinates commutes with the mins over the remaining dimensions.
func (r *relaxer) relax(prev []float64, from, to *grid.Grid, dst []float64) []float64 {
	d := len(r.betas)
	// Current shape starts as the `from` lattice.
	size := 1
	for j := 0; j < d; j++ {
		r.shape[j] = len(from.Axis(j))
		size *= r.shape[j]
	}

	if d == 0 {
		panic("solver: zero-dimensional lattice")
	}

	// cur aliases prev for the first sweep only; sweep j reads from
	// scratch((j−1)%2) and writes into scratch(j%2) (or dst for the final
	// dimension), so prev is never clobbered and no two live buffers
	// alias. dst must not alias prev.
	cur := prev
	for j := 0; j < d; j++ {
		fromAxis := from.Axis(j)
		toAxis := to.Axis(j)
		newSize := size / len(fromAxis) * len(toAxis)

		var out []float64
		if j == d-1 {
			if cap(dst) < newSize {
				dst = make([]float64, newSize)
			}
			out = dst[:newSize]
		} else {
			out = r.scratch(j%2, newSize)
		}

		if from == to {
			r.relaxDimSame(cur, out, j, toAxis)
		} else {
			r.relaxDim(cur, out, j, fromAxis, toAxis)
		}

		cur = out
		r.shape[j] = len(toAxis)
		size = newSize
	}
	return cur
}

// relaxDim rewrites dimension j: for every line along dimension j,
//
//	out[v] = min( min_{v' >= v} in[v'],                  // free power-down
//	              min_{v' <= v} in[v'] + β_j (v − v') )  // paid power-up
//
// where v ranges over toAxis values and v' over fromAxis values.
// in has dimension-j extent len(fromAxis); out has extent len(toAxis);
// all other dimensions keep the current shape.
func (r *relaxer) relaxDim(in, out []float64, j int, fromAxis, toAxis grid.Axis) {
	beta := r.betas[j]
	n1, n2 := len(fromAxis), len(toAxis)

	// Strides under the "dimension 0 slowest" layout for the current
	// mixed shape.
	inner := 1 // product of extents of dimensions > j
	for k := j + 1; k < len(r.shape); k++ {
		inner *= r.shape[k]
	}
	outerIn := n1 * inner
	outerOut := n2 * inner
	outerCount := len(in) / outerIn
	for a := 0; a < outerCount; a++ {
		for b := 0; b < inner; b++ {
			baseIn := a*outerIn + b
			baseOut := a*outerOut + b

			// Ascending pass: paid power-up. Track the best
			// in[v'] − β·v' over fromAxis values v' <= current target.
			best := math.Inf(1)
			i := 0
			for k := 0; k < n2; k++ {
				v := toAxis[k]
				for i < n1 && fromAxis[i] <= v {
					cand := in[baseIn+i*inner] - beta*float64(fromAxis[i])
					if cand < best {
						best = cand
					}
					i++
				}
				out[baseOut+k*inner] = best + beta*float64(v)
			}

			// Descending pass: free power-down. Track the best in[v']
			// over fromAxis values v' >= current target.
			best = math.Inf(1)
			i = n1 - 1
			for k := n2 - 1; k >= 0; k-- {
				v := toAxis[k]
				for i >= 0 && fromAxis[i] >= v {
					if c := in[baseIn+i*inner]; c < best {
						best = c
					}
					i--
				}
				if idx := baseOut + k*inner; best < out[idx] {
					out[idx] = best
				}
			}
		}
	}
}

// relaxDimSame is relaxDim for fromAxis == toAxis, the static-fleet
// case: each target level reads exactly its own source level, so the
// merge cursors go and the float operations, hence the bits, stay those
// of relaxDim. The products β_j·v come from a table (scratch 2) filled
// once per sweep, and a contiguous line (the last dimension) is walked
// through subslices.
func (r *relaxer) relaxDimSame(in, out []float64, j int, axis grid.Axis) {
	beta := r.betas[j]
	n := len(axis)
	inner := 1
	for k := j + 1; k < len(r.shape); k++ {
		inner *= r.shape[k]
	}
	bv := r.scratch(2, n)
	for k, v := range axis {
		bv[k] = beta * float64(v)
	}
	inf := math.Inf(1)
	outer := n * inner
	if inner == 1 {
		for a := 0; a+n <= len(in); a += n {
			src, dst := in[a:a+n], out[a:a+n]
			best := inf
			for k, c := range bv[:len(src)] {
				if cand := src[k] - c; cand < best {
					best = cand
				}
				dst[k] = best + c
			}
			best = inf
			for k := len(src) - 1; k >= 0; k-- {
				if c := src[k]; c < best {
					best = c
				}
				if best < dst[k] {
					dst[k] = best
				}
			}
		}
		return
	}
	for a := 0; a < len(in); a += outer {
		for b := a; b < a+inner; b++ {
			best := inf
			i := b
			for _, c := range bv {
				if cand := in[i] - c; cand < best {
					best = cand
				}
				out[i] = best + c
				i += inner
			}
			best = inf
			for k := n - 1; k >= 0; k-- {
				i -= inner
				if c := in[i]; c < best {
					best = c
				}
				if best < out[i] {
					out[i] = best
				}
			}
		}
	}
}
