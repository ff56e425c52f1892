package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/workload"
)

// Scenario is a named, reproducible workload: an instance generator plus
// the algorithms to run on it. Registering one is all it takes to make a
// workload available to cmd/rightsize, the suite runner, the benchmarks
// and the examples.
type Scenario struct {
	// Name is the registry key (kebab-case by convention).
	Name string
	// Doc is a one-line description for listings and README tables.
	Doc string
	// Instance builds the scenario's instance. It must be deterministic
	// in seed: the suite runner relies on this for bit-identical results
	// across worker counts. Scenarios without randomness ignore the seed.
	Instance func(seed int64) *model.Instance
	// Algorithms to run and measure against the optimum; nil means
	// DefaultAlgorithms().
	Algorithms []AlgSpec

	// fleet, set by the stock scenarios, is the seed-independent Types of
	// every Instance(seed), so Fleet need not generate a demand trace.
	fleet []model.ServerType
}

// specs returns the scenario's algorithm line-up.
func (sc Scenario) specs() []AlgSpec {
	if sc.Algorithms != nil {
		return sc.Algorithms
	}
	return DefaultAlgorithms()
}

// Fleet returns the fleet template of the scenario's instance for seed:
// a copy of a stock scenario's fixed fleet, else Instance(seed).Types.
func (sc Scenario) Fleet(seed int64) []model.ServerType {
	if sc.fleet != nil {
		return slices.Clone(sc.fleet)
	}
	return sc.Instance(seed).Types
}

// ---------- registry ----------

var (
	regMu    sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a scenario to the registry; the name must be unused.
func Register(sc Scenario) error {
	if sc.Name == "" || sc.Instance == nil {
		return fmt.Errorf("engine: scenario needs a name and an instance generator")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[sc.Name]; dup {
		return fmt.Errorf("engine: scenario %q already registered", sc.Name)
	}
	registry[sc.Name] = sc
	return nil
}

// mustRegister is Register for the stock library, where a duplicate is a
// programming error.
func mustRegister(sc Scenario) {
	if err := Register(sc); err != nil {
		panic(err)
	}
}

// Lookup retrieves a registered scenario by name.
func Lookup(name string) (Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	sc, ok := registry[name]
	return sc, ok
}

// Scenarios returns every registered scenario sorted by name, so suite
// runs and listings are deterministic.
func Scenarios() []Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Scenario, 0, len(registry))
	for _, sc := range registry {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ---------- stock library ----------

// maintenanceLineup is the maintenance scenario's algorithm selection:
// the two applicable online algorithms, the offline approximation as a
// hindsight yardstick, and the cheap baselines.
func maintenanceLineup() []AlgSpec {
	out := algorithmsByKey("alg-a", "alg-b")
	out = append(out, ApproxSpec(0.5))
	return append(out, algorithmsByKey("all-on", "load-tracking")...)
}

// The stock fleets. Instance and Fleet hand out copies of them; the cost
// profiles they hold are immutable values, shared by every copy.
var (
	quickstartFleet = []model.ServerType{
		{Name: "slow", Count: 8, SwitchCost: 3, MaxLoad: 1,
			Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}}},
		{Name: "fast", Count: 3, SwitchCost: 12, MaxLoad: 4,
			Cost: model.Static{F: costfn.Power{Idle: 3, Coef: 0.4, Exp: 2}}},
	}
	// cpuGPUFleet is the CPU+GPU cluster used across the experiment
	// study: cheap slow web servers and expensive fast accelerators (the
	// paper's heterogeneity motivation).
	cpuGPUFleet = []model.ServerType{
		{Name: "cpu", Count: 16, SwitchCost: 2, MaxLoad: 1,
			Cost: model.Static{F: costfn.Power{Idle: 1, Coef: 0.6, Exp: 2}}},
		{Name: "gpu", Count: 4, SwitchCost: 15, MaxLoad: 4,
			Cost: model.Static{F: costfn.Affine{Idle: 4, Rate: 0.3}}},
	}
	onoffFleet = []model.ServerType{
		{Name: "std", Count: 12, SwitchCost: 4, MaxLoad: 1,
			Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 0.8}}},
	}
	heterogeneousFleet = []model.ServerType{
		{Name: "gen1", Count: 10, SwitchCost: 1.5, MaxLoad: 1,
			Cost: model.Static{F: costfn.Constant{C: 1.2}}},
		{Name: "gen2", Count: 6, SwitchCost: 4, MaxLoad: 2,
			Cost: model.Static{F: costfn.Affine{Idle: 1.5, Rate: 0.6}}},
		{Name: "gen3", Count: 3, SwitchCost: 11, MaxLoad: 4,
			Cost: model.Static{F: costfn.Power{Idle: 2.5, Coef: 0.3, Exp: 2}}},
	}
	maintenanceFleet = []model.ServerType{
		{Name: "old", Count: 24, SwitchCost: 2, MaxLoad: 1,
			Cost: model.Static{F: costfn.Affine{Idle: 1.2, Rate: 1}}},
		{Name: "new", Count: 8, SwitchCost: 9, MaxLoad: 4,
			Cost: model.Static{F: costfn.Affine{Idle: 2.5, Rate: 0.4}}},
	}
	priceFleet = func() []model.ServerType {
		price := hourlyPrice(48)
		return []model.ServerType{
			{Name: "standard", Count: 10, SwitchCost: 4, MaxLoad: 1,
				Cost: model.Modulated{F: costfn.Affine{Idle: 1, Rate: 0.8}, Scale: price}},
			{Name: "highmem", Count: 4, SwitchCost: 10, MaxLoad: 3,
				Cost: model.Modulated{F: costfn.Affine{Idle: 2.5, Rate: 0.4}, Scale: price}},
		}
	}()
)

// hourlyPrice is the price-modulated scenario's electricity price over
// T hourly slots: an evening peak and a cheap night.
func hourlyPrice(T int) []float64 {
	price := make([]float64, T)
	for t := range price {
		hour := t % 24
		switch {
		case hour >= 18 && hour <= 21:
			price[t] = 1.8
		case hour <= 5:
			price[t] = 0.6
		default:
			price[t] = 1.0
		}
	}
	return price
}

// mustRegisterOn registers a stock scenario on a fleet that does not
// depend on the seed: Instance(seed) is demand(seed) with a copy of fleet
// as its Types, and Fleet hands out a copy without generating the demand.
func mustRegisterOn(fleet []model.ServerType, sc Scenario, demand func(seed int64) *model.Instance) {
	sc.fleet = fleet
	sc.Instance = func(seed int64) *model.Instance {
		ins := demand(seed)
		ins.Types = slices.Clone(fleet)
		return ins
	}
	mustRegister(sc)
}

func init() {
	mustRegisterOn(quickstartFleet, Scenario{
		Name: "quickstart",
		Doc:  "two-type cluster under clean diurnal load (the README example)",
	}, func(int64) *model.Instance {
		return &model.Instance{Lambda: workload.Diurnal(48, 2, 16, 24, 0)}
	})

	mustRegisterOn(cpuGPUFleet, Scenario{
		Name: "diurnal",
		Doc:  "CPU+GPU cluster, two days of noisy day/night load",
	}, func(seed int64) *model.Instance {
		rng := rand.New(rand.NewSource(seed))
		return &model.Instance{Lambda: workload.DiurnalNoisy(rng, 48, 4, 20, 24, 0.2)}
	})

	mustRegisterOn(cpuGPUFleet, Scenario{
		Name: "bursty",
		Doc:  "flat base load with random spikes (cache-miss storms)",
	}, func(seed int64) *model.Instance {
		rng := rand.New(rand.NewSource(seed))
		return &model.Instance{Lambda: workload.Bursty(rng, 48, 5, 16, 0.15)}
	})

	mustRegisterOn(onoffFleet, Scenario{
		Name: "onoff",
		Doc:  "adversarial on/off phases on a homogeneous fleet (LCP applies)",
	}, func(int64) *model.Instance {
		return &model.Instance{Lambda: workload.OnOff(48, 10, 1, 5, 3)}
	})

	mustRegisterOn(cpuGPUFleet, Scenario{
		Name: "random-walk",
		Doc:  "bounded mean-reverting demand drift",
	}, func(seed int64) *model.Instance {
		rng := rand.New(rand.NewSource(seed))
		return &model.Instance{Lambda: workload.RandomWalk(rng, 48, 8, 3, 0, 28)}
	})

	mustRegisterOn(heterogeneousFleet, Scenario{
		Name: "heterogeneous",
		Doc:  "three server generations with mixed convex cost families",
	}, func(seed int64) *model.Instance {
		rng := rand.New(rand.NewSource(seed))
		trace := workload.Add(
			workload.DiurnalNoisy(rng, 48, 3, 14, 24, 0.15),
			workload.Bursty(rng, 48, 0, 6, 0.1),
		)
		return &model.Instance{Lambda: workload.Clamp(trace, 30)}
	})

	mustRegisterOn(maintenanceFleet, Scenario{
		Name:       "maintenance",
		Doc:        "time-varying fleet sizes: maintenance window then commissioning (Section 4.3)",
		Algorithms: maintenanceLineup(),
	}, func(int64) *model.Instance {
		const T = 36
		counts := make([][]int, T)
		for t := 0; t < T; t++ {
			old, fresh := 24, 4
			switch {
			case t >= 12 && t < 18:
				old = 10 // maintenance: most old servers offline
			case t >= 24:
				fresh = 8 // commissioning: the new rack doubles
			}
			counts[t] = []int{old, fresh}
		}
		return &model.Instance{
			Lambda: workload.Diurnal(T, 4, 20, 12, 0),
			Counts: counts,
		}
	})

	mustRegisterOn(priceFleet, Scenario{
		Name: "price-modulated",
		Doc:  "electricity-price signal scaling all operating costs (time-dependent f_{t,j})",
	}, func(seed int64) *model.Instance {
		rng := rand.New(rand.NewSource(seed))
		return &model.Instance{Lambda: workload.DiurnalNoisy(rng, 48, 1, 10, 24, 0.3)}
	})
}
