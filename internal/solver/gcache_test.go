package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/workload"
)

// opaqueFn is a cost function outside every fingerprintable family; slots
// carrying it must bypass the layer memo and still solve correctly.
type opaqueFn struct{ rate float64 }

func (o opaqueFn) Value(z float64) float64 { return 1 + o.rate*z*z }

// swapGcache replaces the process-global memo with a fresh one of the
// given geometry for the duration of the test. Tests in a package run
// sequentially (none of these call t.Parallel), so the swap is safe; the
// stress test's goroutines all run against the swapped instance.
func swapGcache(t testing.TB, shards, totalFloats int) {
	old := gcache
	gcache = newGMemo(shards, totalFloats)
	t.Cleanup(func() { gcache = old })
}

// The memo must be invisible in results: solving with and without it is
// bit-identical, across periodic traces (heavy reuse), time-varying
// fleets, modulated (Scaled) costs and unmemoisable functions — and
// regardless of the shard geometry: the default 16-shard RCU memo, a
// single shard (the legacy one-map semantics), and a starved memo whose
// budget forces a reset on nearly every insert must all agree with the
// memo-off answer.
func TestLayerMemoBitIdentical(t *testing.T) {
	price := []float64{1, 1, 0.6, 1.8, 1, 0.6, 1.8, 1, 1, 0.6, 1.8, 1}
	counts := make([][]int, 12)
	for i := range counts {
		counts[i] = []int{5, 3}
		if i >= 4 && i < 8 {
			counts[i] = []int{3, 3}
		}
	}
	instances := map[string]*model.Instance{
		"periodic": {
			Types: []model.ServerType{
				{Name: "a", Count: 6, SwitchCost: 2, MaxLoad: 1,
					Cost: model.Static{F: costfn.Power{Idle: 1, Coef: 0.5, Exp: 2}}},
				{Name: "b", Count: 3, SwitchCost: 8, MaxLoad: 4,
					Cost: model.Static{F: costfn.Affine{Idle: 3, Rate: 0.4}}},
			},
			Lambda: workload.Diurnal(24, 2, 10, 8, 0),
		},
		"time-varying": {
			Types: []model.ServerType{
				{Name: "a", Count: 5, SwitchCost: 1.5, MaxLoad: 1,
					Cost: model.Modulated{F: costfn.Affine{Idle: 1, Rate: 0.7}, Scale: price}},
				{Name: "b", Count: 3, SwitchCost: 6, MaxLoad: 2,
					Cost: model.Static{F: costfn.MustPiecewiseLinear(
						[]float64{0, 1, 2}, []float64{1, 1.5, 3})}},
			},
			Lambda: workload.Diurnal(12, 1, 8, 6, 0),
			Counts: counts,
		},
		"unmemoisable": {
			Types: []model.ServerType{
				{Name: "a", Count: 4, SwitchCost: 2, MaxLoad: 1.5,
					Cost: model.Static{F: opaqueFn{rate: 0.8}}},
				{Name: "b", Count: 3, SwitchCost: 4, MaxLoad: 2,
					Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 0.5}}},
			},
			Lambda: workload.Diurnal(10, 1, 7, 5, 0),
		},
	}
	geometries := []struct {
		name   string
		shards int
		floats int
	}{
		{"sharded", gcacheShards, gcacheMaxFloats},
		{"single-shard", 1, gcacheMaxFloats},
		{"starved", 4, 256}, // a reset on nearly every insert
	}
	for name, ins := range instances {
		t.Run(name, func(t *testing.T) {
			plain, err := memoless(func() (*Result, error) { return Solve(ins, Options{}) })
			if err != nil {
				t.Fatal(err)
			}
			for _, geo := range geometries {
				t.Run(geo.name, func(t *testing.T) {
					swapGcache(t, geo.shards, geo.floats)
					for round := 0; round < 2; round++ { // second round hits the memo
						memo, err := Solve(ins, Options{})
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(memo.Cost()) != math.Float64bits(plain.Cost()) {
							t.Fatalf("round %d: memoised cost %v != plain %v", round, memo.Cost(), plain.Cost())
						}
						for i := range plain.Schedule {
							if !memo.Schedule[i].Equal(plain.Schedule[i]) {
								t.Fatalf("round %d slot %d: schedules diverge", round, i+1)
							}
						}
					}
				})
			}
		})
	}
}

// Trackers must agree with and without the memo, slot by slot.
func TestTrackerMemoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 5; trial++ {
		ins := randomInstance(rng, 2, 5, 10)
		a, err := NewPrefixTracker(ins, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := memoless(func() (*PrefixTracker, error) { return NewPrefixTracker(ins, Options{}) })
		if err != nil {
			t.Fatal(err)
		}
		for !a.Done() {
			ca, va := a.Advance()
			cb, vb := b.Advance()
			if math.Float64bits(va) != math.Float64bits(vb) || !ca.Equal(cb) {
				t.Fatalf("trial %d slot %d: memo (%v, %v) != plain (%v, %v)",
					trial, a.T(), ca, va, cb, vb)
			}
		}
	}
}

// Distinct slot content must never collide: demand, counts, capacities,
// gamma and every fingerprintable family's parameters all key the memo.
func TestMemoKeySeparates(t *testing.T) {
	base := func() *model.Instance {
		return &model.Instance{
			Types: []model.ServerType{{Name: "a", Count: 4, SwitchCost: 2, MaxLoad: 1,
				Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}}},
			Lambda: []float64{2, 2},
		}
	}
	ins1 := base()
	r1, err := Solve(ins1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ins2 := base()
	ins2.Types[0].MaxLoad = 2 // same counts and λ, different capacity
	r2, err := Solve(ins2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want2, err := memoless(func() (*Result, error) { return Solve(ins2, Options{}) })
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cost() != want2.Cost() {
		t.Fatalf("capacity change served from stale memo: %v != %v", r2.Cost(), want2.Cost())
	}
	if r1.Cost() == r2.Cost() {
		t.Fatal("test vectors should differ")
	}
}
