package dispatch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costfn"
)

// phi is φ_j(y) = x_j f_j(y/x_j) through the cost function's interface:
// the reference the brute-force tests price splits with.
func phi(s Server, y float64) float64 {
	x := float64(s.Active)
	if y <= 0 {
		return x * s.F.Value(0)
	}
	return x * s.F.Value(y/x)
}

// resolvePlans prepares the servers' types and plans the cell of their
// active counts over sv.active, as solve does before the dual search.
func (sv *Solver) resolvePlans(servers []Server) {
	active := sv.active
	sv.Prepare(servers)
	sv.active = append(sv.active[:0], active...)
	sv.opaque = false
	for _, j := range sv.active {
		p := &sv.types[j]
		p.on, p.x = true, float64(servers[j].Active)
		p.cap = p.x * p.zmax
		sv.opaque = sv.opaque || p.kind == planOpaque
	}
}

// generic hides a stock family's concrete type behind the Invertible
// interface, so the solver's type table takes the interface path for a
// function it would otherwise call directly.
type generic struct{ costfn.Invertible }

// hideFamily returns f behind generic when it is a stock family the type
// table calls directly, and f itself otherwise.
func hideFamily(f costfn.Func) costfn.Func {
	switch f := f.(type) {
	case costfn.Constant, costfn.Affine, costfn.Power:
		return generic{f.(costfn.Invertible)}
	}
	return f
}

// The type table calls Constant, Affine and Power through their concrete
// methods and every other family through the interface it resolved once
// per slot. Over random fleets of every family, random lattices walked in
// DP order and random demands, the direct calls must give bit for bit the
// g, Y and ν* of the interface path, warm-started alike, and of a cold
// solve per cell.
func TestPreparedTableMatchesInterfacePath(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	cells := 0
	for trial := 0; trial < 150; trial++ {
		d := 1 + rng.Intn(4)
		direct, hidden := make([]Server, d), make([]Server, d)
		counts := make([]int, d)
		fullCap := 0.0
		for j := range direct {
			f := randomFunc(rng)
			c := 0.25 + 4*rng.Float64()
			direct[j] = Server{Cap: c, F: f}
			hidden[j] = Server{Cap: c, F: hideFamily(f)}
			counts[j] = rng.Intn(5)
			fullCap += float64(counts[j]) * c
		}
		var inl, gen Solver
		var resI, resG, resC Assignment
		x := make([]int, d)
		for n := 0; n < 4; n++ {
			lambda := 1.05 * fullCap * rng.Float64()
			if n == 0 {
				lambda = 0
			}
			inl.Prepare(direct)
			gen.Prepare(hidden)
			// Walk the lattice with the last type fastest, as the DP does.
			for j := range x {
				x[j] = 0
			}
			for {
				inl.AssignPrepared(x, lambda, &resI)
				gen.AssignPrepared(x, lambda, &resG)
				var cold Solver
				cold.Prepare(hidden)
				cold.AssignPrepared(x, lambda, &resC)
				for _, r := range []*Assignment{&resG, &resC} {
					if math.Float64bits(resI.Cost) != math.Float64bits(r.Cost) {
						t.Fatalf("trial %d x=%v λ=%g: g %v != %v (fleet %+v)", trial, x, lambda, resI.Cost, r.Cost, direct)
					}
					for j := range resI.Y {
						if math.Float64bits(resI.Y[j]) != math.Float64bits(r.Y[j]) {
							t.Fatalf("trial %d x=%v λ=%g: Y[%d] %v != %v (fleet %+v)", trial, x, lambda, j, resI.Y[j], r.Y[j], direct)
						}
					}
				}
				if inl.Warm() != gen.Warm() {
					t.Fatalf("trial %d x=%v λ=%g: dual %+v != %+v", trial, x, lambda, inl.Warm(), gen.Warm())
				}
				if cold.Warm() != (Warm{}) && math.Float64bits(inl.Warm().Nu) != math.Float64bits(cold.Warm().Nu) {
					t.Fatalf("trial %d x=%v λ=%g: ν* %v != cold %v", trial, x, lambda, inl.Warm().Nu, cold.Warm().Nu)
				}
				cells++
				j := d - 1
				for j >= 0 && x[j] == counts[j] {
					x[j] = 0
					j--
				}
				if j < 0 {
					break
				}
				x[j]++
			}
		}
	}
	t.Logf("%d cells matched", cells)
}
