// Package grid provides the configuration lattices over which the offline
// solvers run: the full grid M = Π_j {0, …, m_j} of Section 4.1 and the
// γ-reduced grid M^γ = Π_j M^γ_j of Section 4.2, where
//
//	M^γ_j = {0, m_j} ∪ {⌊γ^k⌋ ∈ M_j} ∪ {⌈γ^k⌉ ∈ M_j}
//	      = {0, 1, ⌊γ⌋, ⌈γ⌉, ⌊γ²⌋, ⌈γ²⌉, …, m_j}.
//
// A Grid flattens the lattice into a dense index space with mixed-radix
// strides so that DP layers are plain []float64 and per-dimension sweeps
// are cache-friendly strided loops.
package grid

import (
	"fmt"
	"math"
	"sort"
)

// Axis is the ordered set of admissible active-server counts for one type:
// strictly increasing, non-empty, starting at 0.
type Axis []int

// FullAxis returns {0, 1, …, m}.
func FullAxis(m int) Axis {
	if m < 0 {
		panic("grid: negative server count")
	}
	a := make(Axis, m+1)
	for i := range a {
		a[i] = i
	}
	return a
}

// ReducedAxis returns the paper's M^γ_j for m servers: zero, every
// ⌊γ^k⌋ and ⌈γ^k⌉ not exceeding m, and m itself. Including both the
// rounded-down and rounded-up powers keeps consecutive levels within a
// factor γ wherever integrality permits (Section 4.2); where it does not
// (counts below 1/(γ−1), whose successor integer already exceeds the γ
// ratio), consecutive levels are adjacent integers — the finest resolution
// the discrete setting allows. Gamma must exceed 1.
func ReducedAxis(m int, gamma float64) Axis {
	if m < 0 {
		panic("grid: negative server count")
	}
	if gamma <= 1 {
		panic("grid: ReducedAxis needs gamma > 1")
	}
	set := map[int]bool{0: true, m: true}
	// γ^0 = 1 is included by the paper's definition (k ∈ N with 1 listed
	// explicitly); iterate powers until they clear m.
	for p := 1.0; p <= float64(m); p *= gamma {
		lo := int(math.Floor(p))
		hi := int(math.Ceil(p))
		if lo <= m {
			set[lo] = true
		}
		if hi <= m {
			set[hi] = true
		}
		if lo == 0 { // guard against gamma rounding oddities
			break
		}
	}
	a := make(Axis, 0, len(set))
	for v := range set {
		a = append(a, v)
	}
	sort.Ints(a)
	return a
}

// MaxRatio returns the largest ratio between consecutive non-zero levels
// that are not adjacent integers. For a ReducedAxis it is at most γ
// (adjacent integers are excluded because, below 1/(γ−1), no integer can
// satisfy the γ ratio — see ReducedAxis). Axes with fewer than two
// non-zero levels return 1.
func (a Axis) MaxRatio() float64 {
	ratio := 1.0
	prev := 0
	for _, v := range a {
		if v == 0 {
			continue
		}
		if prev != 0 && v != prev+1 {
			if r := float64(v) / float64(prev); r > ratio {
				ratio = r
			}
		}
		prev = v
	}
	return ratio
}

// Contains reports whether the axis includes value v.
func (a Axis) Contains(v int) bool {
	i := sort.SearchInts(a, v)
	return i < len(a) && a[i] == v
}

// Next returns N_j(v): the smallest axis value strictly greater than v.
// ok is false when v is at or beyond the maximum.
func (a Axis) Next(v int) (next int, ok bool) {
	i := sort.SearchInts(a, v+1)
	if i == len(a) {
		return 0, false
	}
	return a[i], true
}

// FloorIndex returns the index of the largest axis value <= v, or -1 if v
// is below the first value.
func (a Axis) FloorIndex(v int) int {
	return sort.SearchInts(a, v+1) - 1
}

// CeilIndex returns the index of the smallest axis value >= v, or len(a)
// if v is above the last value.
func (a Axis) CeilIndex(v int) int {
	return sort.SearchInts(a, v)
}

// validate checks the Axis contract.
func (a Axis) validate() error {
	if len(a) == 0 {
		return fmt.Errorf("grid: empty axis")
	}
	if a[0] != 0 {
		return fmt.Errorf("grid: axis must start at 0, got %d", a[0])
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			return fmt.Errorf("grid: axis not strictly increasing at %d", i)
		}
	}
	return nil
}

// Grid is the cartesian product of d axes, flattened into indices
// 0 … Size()-1. Dimension 0 varies slowest (largest stride); the last
// dimension is contiguous.
type Grid struct {
	axes    []Axis
	strides []int
	size    int
	small   [4]int // strides' backing array for lattices of up to four dimensions
}

// New builds a grid from the given axes (one per server type). The axes
// are retained, not copied.
func New(axes []Axis) *Grid {
	if len(axes) == 0 {
		panic("grid: no axes")
	}
	g := &Grid{axes: axes}
	g.strides = g.small[:0]
	g.strides = append(g.strides, make([]int, len(axes))...)
	size := 1
	for j := len(axes) - 1; j >= 0; j-- {
		if err := axes[j].validate(); err != nil {
			panic(err)
		}
		g.strides[j] = size
		size *= len(axes[j])
	}
	g.size = size
	return g
}

// NewFull builds the complete lattice for counts m (Section 4.1).
func NewFull(m []int) *Grid {
	return New(FullAxes(m))
}

// FullAxes returns FullAxis(m_j) for every count, sharing one backing
// array.
func FullAxes(m []int) []Axis {
	n := 0
	for _, mj := range m {
		if mj < 0 {
			panic("grid: negative server count")
		}
		n += mj + 1
	}
	levels := make([]int, n)
	axes := make([]Axis, len(m))
	for j, mj := range m {
		a := Axis(levels[: mj+1 : mj+1])
		levels = levels[mj+1:]
		for i := range a {
			a[i] = i
		}
		axes[j] = a
	}
	return axes
}

// NewReduced builds the γ-reduced lattice M^γ (Section 4.2).
func NewReduced(m []int, gamma float64) *Grid {
	axes := make([]Axis, len(m))
	for j, mj := range m {
		axes[j] = ReducedAxis(mj, gamma)
	}
	return New(axes)
}

// D returns the number of dimensions.
func (g *Grid) D() int { return len(g.axes) }

// Size returns the number of lattice points.
func (g *Grid) Size() int { return g.size }

// Axis returns dimension j's axis.
func (g *Grid) Axis(j int) Axis { return g.axes[j] }

// Stride returns the index stride of dimension j.
func (g *Grid) Stride(j int) int { return g.strides[j] }

// Decode writes the configuration (actual server counts) of index idx
// into out, which must have length D().
func (g *Grid) Decode(idx int, out []int) {
	if idx < 0 || idx >= g.size {
		panic(fmt.Sprintf("grid: index %d out of range [0, %d)", idx, g.size))
	}
	for j := range g.axes {
		level := idx / g.strides[j]
		idx -= level * g.strides[j]
		out[j] = g.axes[j][level]
	}
}

// Encode returns the index of configuration x, which must lie exactly on
// the lattice. ok is false if any coordinate is not an axis value.
func (g *Grid) Encode(x []int) (idx int, ok bool) {
	if len(x) != len(g.axes) {
		return 0, false
	}
	for j, v := range x {
		i := sort.SearchInts(g.axes[j], v)
		if i == len(g.axes[j]) || g.axes[j][i] != v {
			return 0, false
		}
		idx += i * g.strides[j]
	}
	return idx, true
}

// Value returns the server count of dimension j at lattice index idx.
func (g *Grid) Value(idx, j int) int {
	return g.axes[j][(idx/g.strides[j])%len(g.axes[j])]
}

// Equal reports whether two grids have identical axes.
func (g *Grid) Equal(o *Grid) bool {
	if g.D() != o.D() {
		return false
	}
	for j := range g.axes {
		if len(g.axes[j]) != len(o.axes[j]) {
			return false
		}
		for i := range g.axes[j] {
			if g.axes[j][i] != o.axes[j][i] {
				return false
			}
		}
	}
	return true
}
