package engine

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/costfn"
	"repro/internal/model"
	"repro/internal/workload"
)

// Every stock scenario builds its fleet alone (Fleet without a demand
// trace) equal to its instance's, for any seed, and hands out a copy:
// editing one fleet changes no later one.
func TestStockScenarioFleetMatchesInstance(t *testing.T) {
	for _, sc := range Scenarios() {
		if sc.fleet == nil {
			t.Errorf("%s: no types-only fleet", sc.Name)
			continue
		}
		for _, seed := range []int64{0, 1, 7} {
			got, want := sc.Fleet(seed), sc.Instance(seed).Types
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: Fleet %+v != Instance types %+v", sc.Name, seed, got, want)
			}
			got[0].Count++
			if again := sc.Fleet(seed); !reflect.DeepEqual(again, want) {
				t.Fatalf("%s seed %d: editing one fleet changed the next", sc.Name, seed)
			}
		}
	}
}

// smallScenarios keeps determinism tests fast: a slice of the stock
// registry with modest lattices.
func smallScenarios(t *testing.T) []Scenario {
	t.Helper()
	var out []Scenario
	for _, name := range []string{"quickstart", "onoff", "price-modulated"} {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("stock scenario %q missing", name)
		}
		out = append(out, sc)
	}
	return out
}

func TestSuiteDeterministicAcrossWorkerCounts(t *testing.T) {
	scs := smallScenarios(t)
	emit := func(workers int) []byte {
		res, err := RunSuite(scs, SuiteOptions{Workers: workers, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := (JSONSink{Indent: true}).Emit(&b, res); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	serial := emit(1)
	for _, workers := range []int{2, 3, 8, AutoWorkers} {
		if got := emit(workers); !bytes.Equal(serial, got) {
			t.Errorf("Workers=%d JSON differs from serial run:\nserial:\n%s\nparallel:\n%s",
				workers, serial, got)
		}
	}
}

func TestStockScenariosValidateAndSolve(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 7 {
		t.Fatalf("stock registry has %d scenarios, want at least 7", len(scs))
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			ins := sc.Instance(3)
			if err := ins.Validate(); err != nil {
				t.Fatalf("instance invalid: %v", err)
			}
			// Instance generation must be deterministic in the seed.
			again := sc.Instance(3)
			for i := range ins.Lambda {
				if ins.Lambda[i] != again.Lambda[i] {
					t.Fatalf("instance generator is not deterministic (slot %d)", i)
				}
			}
			res, err := Evaluate(sc, 3, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Opt <= 0 {
				t.Errorf("OPT = %g, want > 0", res.Opt)
			}
			if len(res.Rows) < 2 {
				t.Fatalf("only %d rows measured, want OPT plus at least one algorithm", len(res.Rows))
			}
			if res.Rows[0].Name != "OPT" || res.Rows[0].Ratio != 1 {
				t.Errorf("first row = %+v, want OPT with ratio 1", res.Rows[0])
			}
			for _, m := range res.Rows[1:] {
				if m.Ratio < 1-1e-9 {
					t.Errorf("%s ratio %g below 1 (beat the optimum?)", m.Name, m.Ratio)
				}
			}
		})
	}
}

func TestSuiteSolvesOptOncePerInstance(t *testing.T) {
	scs := smallScenarios(t)
	before := optSolves.Load()
	res, err := RunSuite(scs, SuiteOptions{Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	solves := optSolves.Load() - before
	if int(solves) != len(scs) {
		t.Errorf("suite solved OPT %d times for %d scenarios, want exactly one each", solves, len(scs))
	}
	for _, r := range res.Results {
		if len(r.Rows) < 3 {
			t.Errorf("scenario %s measured %d rows; several algorithms should share the one OPT solve",
				r.Scenario, len(r.Rows))
		}
	}
}

func TestEvaluateRecordsSkips(t *testing.T) {
	sc, ok := Lookup("price-modulated")
	if !ok {
		t.Fatal("price-modulated scenario missing")
	}
	res, err := Evaluate(sc, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var foundA bool
	for _, s := range res.Skipped {
		if strings.HasPrefix(s, "AlgorithmA:") {
			foundA = true
		}
	}
	if !foundA {
		t.Errorf("Algorithm A should be skipped on time-dependent costs; skipped = %v", res.Skipped)
	}
	// An invalid ε must gate, not error the scenario (cmd/rightsize
	// -compare relies on this to keep printing the table).
	algB, ok := LookupAlgorithm("alg-b")
	if !ok {
		t.Fatal("alg-b missing from the registry")
	}
	sc.Algorithms = []AlgSpec{algB, AlgorithmCSpec(0)}
	res, err = Evaluate(sc, 1, false)
	if err != nil {
		t.Fatalf("eps<=0 should skip Algorithm C, not fail: %v", err)
	}
	if len(res.Skipped) != 1 || !strings.HasPrefix(res.Skipped[0], "AlgorithmC") {
		t.Errorf("skipped = %v, want an AlgorithmC entry", res.Skipped)
	}
	for _, m := range res.Rows {
		if m.Name == "AlgorithmA" {
			t.Error("skipped algorithm must not be measured")
		}
	}
}

func TestKeepSchedules(t *testing.T) {
	sc, _ := Lookup("quickstart")
	res, err := Evaluate(sc, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedules) != len(res.Rows) {
		t.Fatalf("%d schedules for %d rows", len(res.Schedules), len(res.Rows))
	}
	ins := sc.Instance(1)
	for i, sched := range res.Schedules {
		if len(sched) != ins.T() {
			t.Errorf("row %d: schedule has %d slots, want %d", i, len(sched), ins.T())
		}
	}
}

func TestRegisterRejectsDuplicatesAndBlanks(t *testing.T) {
	if err := Register(Scenario{}); err == nil {
		t.Error("blank scenario should be rejected")
	}
	if err := Register(Scenario{Name: "quickstart", Instance: func(int64) *model.Instance { return nil }}); err == nil {
		t.Error("duplicate name should be rejected")
	}
}

func TestSinkFormats(t *testing.T) {
	res, err := RunSuite([]Scenario{mustLookup(t, "onoff")}, SuiteOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for format, want := range map[string]string{
		"text":     "algorithm",
		"json":     `"scenario": "onoff"`,
		"csv":      "scenario,seed,types,slots,opt,algorithm",
		"markdown": "### Scenario `onoff`",
	} {
		sink, err := SinkFor(format)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := sink.Emit(&b, res); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), want) {
			t.Errorf("%s sink output missing %q:\n%s", format, want, b.String())
		}
	}
	if _, err := SinkFor("yaml"); err == nil {
		t.Error("unknown format should error")
	}
	// LCP applies on the homogeneous onoff fleet and must appear in CSV.
	var b bytes.Buffer
	if err := (CSVSink{}).Emit(&b, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "LCP") {
		t.Errorf("csv missing LCP row:\n%s", b.String())
	}
}

func mustLookup(t *testing.T, name string) Scenario {
	t.Helper()
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("scenario %q missing", name)
	}
	return sc
}

func TestRatioAgainstOpt(t *testing.T) {
	ins := &model.Instance{
		Types: []model.ServerType{{
			Name: "std", Count: 4, SwitchCost: 2, MaxLoad: 1,
			Cost: model.Static{F: costfn.Affine{Idle: 1, Rate: 1}},
		}},
		Lambda: workload.OnOff(12, 3, 0.5, 3, 3),
	}
	alg, err := core.NewAlgorithmA(ins.Types)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RatioAgainstOpt(ins, alg)
	if err != nil {
		t.Fatal(err)
	}
	if r < 1-1e-9 || r > 2*float64(ins.D())+1+1e-9 {
		t.Errorf("ratio %g outside [1, 2d+1]", r)
	}
}
