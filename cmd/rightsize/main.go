// Command rightsize solves data-center right-sizing workloads: either a
// JSON instance file, a named scenario from the engine's registry, or a
// live demand stream advised slot-by-slot.
//
// Usage:
//
//	rightsize -input instance.json [-mode optimal|approx|online-a|online-b|online-c]
//	          [-eps 0.5] [-workers N] [-schedule] [-render] [-compare]
//	rightsize -scenario diurnal [-seed 1] [-format text|json|csv|markdown] [-render]
//	rightsize -suite [-workers N] [-seed 1] [-format text|json|csv|markdown]
//	rightsize -stream [-alg algA] [-fleet quickstart | -input instance.json]
//	          [-replay] [-interval 500ms] [-checkpoint cp.json | -resume cp.json]
//	          [-serve-url http://localhost:8080] [-batch 16]
//	rightsize -list
//	rightsize -list-algs
//
// Modes (with -input):
//
//	optimal   exact offline optimum (Section 4.1; default)
//	approx    (1+ε)-approximation (Section 4.2)
//	online-a  Algorithm A (time-independent costs, Section 2)
//	online-b  Algorithm B (Section 3.1)
//	online-c  Algorithm C (Section 3.2, uses -eps)
//
// Stream mode opens a live advisory session: demand values are read one
// per line from stdin (or replayed from -input's trace with -replay) and
// one JSON advisory is emitted per decided slot — the configuration to
// run plus running cost and competitive-ratio telemetry. The algorithm is
// resolved by name through the registry (-list-algs shows it; spellings
// like "algA", "alg-a" and "AlgorithmA" are equivalent). -checkpoint
// writes the session's replay log on exit; -resume rebuilds a session
// from such a log before reading further input. With -serve-url the same
// stream drives a remote rightsized daemon over its HTTP API instead of
// an in-process session — identical replay files, identical advisories.
// -batch N amortizes per-push overhead by feeding N demands per push
// (one session acquire in-process, one HTTP round-trip remotely);
// advisories are identical for any batch size.
//
// -schedule prints the slot-by-slot configurations; -compare runs every
// applicable algorithm through the scenario engine and prints a table.
// -scenario runs one registered scenario; -suite runs the whole registry
// concurrently. -workers sizes -suite's scenario pool and the per-layer
// fan-out of -input's optimal and approx solves; output is identical for
// any value. -stream ignores it: a streamed slot solves one small,
// mostly pruned layer, where the fan-out costs more than it saves.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	rightsizing "repro"
	"repro/internal/engine"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rightsize: ")

	input := flag.String("input", "", "path to an instance JSON file")
	mode := flag.String("mode", "optimal", "optimal | approx | online-a | online-b | online-c")
	eps := flag.Float64("eps", 0.5, "accuracy parameter for approx and online-c")
	printSched := flag.Bool("schedule", false, "print the slot-by-slot schedule")
	render := flag.Bool("render", false, "draw the schedule as a stacked ASCII chart")
	compare := flag.Bool("compare", false, "run all applicable algorithms and print a table")
	scenario := flag.String("scenario", "", "run a named scenario from the registry")
	suite := flag.Bool("suite", false, "run every registered scenario")
	list := flag.Bool("list", false, "list registered scenarios and exit")
	listAlgs := flag.Bool("list-algs", false, "list registered algorithms and exit")
	seed := flag.Int64("seed", 1, "scenario seed (workload randomness)")
	workers := flag.Int("workers", rightsizing.AutoWorkers, "-suite worker pool and -input solve fan-out (-1 = one per CPU; -stream ignores it)")
	format := flag.String("format", "text", "result format: text | json | csv | markdown")
	streamMode := flag.Bool("stream", false, "advise a live demand stream (stdin lines or -replay)")
	alg := flag.String("alg", "alg-a", "stream algorithm (registry name; see -list-algs)")
	fleet := flag.String("fleet", "quickstart", "stream fleet template: scenario name (or use -input)")
	replay := flag.Bool("replay", false, "stream the -input (or -fleet scenario) trace instead of stdin")
	interval := flag.Duration("interval", 0, "pause between replayed slots (e.g. 500ms)")
	checkpoint := flag.String("checkpoint", "", "write the session checkpoint JSON here on exit")
	resume := flag.String("resume", "", "resume a session from a checkpoint JSON before reading input")
	serveURL := flag.String("serve-url", "", "drive a rightsized daemon at this base URL instead of an in-process session")
	batch := flag.Int("batch", 1, "stream mode: feed demands in batches of this size")
	flag.Parse()

	switch {
	case *list:
		listScenarios()
	case *listAlgs:
		listAlgorithms()
	case *streamMode:
		a := streamArgs{alg: *alg, fleet: *fleet, input: *input, seed: *seed, replay: *replay,
			interval: *interval, checkpoint: *checkpoint, resume: *resume, serveURL: *serveURL, batch: *batch}
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "alg" {
				a.algSet = true
			}
		})
		if err := runStream(a, os.Stdin, os.Stdout, os.Stderr); err != nil {
			log.Fatal(err)
		}
	case *suite:
		runScenarios(rightsizing.Scenarios(), *seed, *workers, *format, false)
	case *scenario != "":
		sc, ok := rightsizing.LookupScenario(*scenario)
		if !ok {
			log.Fatalf("unknown scenario %q; -list shows the registry", *scenario)
		}
		runScenarios([]rightsizing.Scenario{sc}, *seed, *workers, *format, *render)
	case *input != "":
		runInstanceFile(*input, *mode, *eps, *printSched, *render, *compare, *workers)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func listScenarios() {
	scs := rightsizing.Scenarios()
	width := 0
	for _, sc := range scs {
		if len(sc.Name) > width {
			width = len(sc.Name)
		}
	}
	for _, sc := range scs {
		fmt.Printf("%-*s  %s\n", width, sc.Name, sc.Doc)
	}
}

func listAlgorithms() {
	t := rightsizing.NewTable("key", "name", "bound", "applies to", "stream", "description")
	for _, s := range rightsizing.Algorithms() {
		streamable := "yes"
		if !s.Streamable() {
			streamable = "no"
		}
		t.Add(s.Key, s.Name, s.Bound, s.Applies, streamable, s.Doc)
	}
	fmt.Print(t)
}

// runScenarios routes one or all scenarios through the engine's suite
// runner and the selected result sink.
func runScenarios(scs []rightsizing.Scenario, seed int64, workers int, format string, render bool) {
	sink, err := rightsizing.NewSink(format)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rightsizing.RunSuite(scs, rightsizing.SuiteOptions{
		Workers:       workers,
		Seed:          seed,
		KeepSchedules: render,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sink.Emit(os.Stdout, res); err != nil {
		log.Fatal(err)
	}
	if render {
		for i := range res.Results {
			r := &res.Results[i]
			sc, _ := rightsizing.LookupScenario(r.Scenario)
			ins := sc.Instance(r.Seed)
			fmt.Printf("\noptimal schedule for %s:\n", r.Scenario)
			fmt.Print(engine.RenderSchedule(ins, r.Schedules[0], 96))
		}
	}
}

// readInstance parses the instance JSON file at path.
func readInstance(path string) (*rightsizing.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rightsizing.ParseInstance(f)
}

func runInstanceFile(input, mode string, eps float64, printSched, render, compare bool, workers int) {
	ins, err := readInstance(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %d server types, %d time slots\n", ins.D(), ins.T())

	if compare {
		runComparison(ins, eps)
		return
	}

	var sched rightsizing.Schedule
	switch mode {
	case "optimal":
		res, err := rightsizing.Solve(ins, rightsizing.SolveOptions{Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		sched = res.Schedule
		fmt.Printf("optimal cost %.4f (operating %.4f, switching %.4f), lattice %d\n",
			res.Cost(), res.Breakdown.Operating, res.Breakdown.Switching, res.LatticeSize)
	case "approx":
		if eps <= 0 {
			log.Fatalf("approx needs -eps > 0, got %g", eps)
		}
		// Theorem 21's γ = 1 + ε/2 (SolveApprox), with the worker pool.
		res, err := rightsizing.Solve(ins, rightsizing.SolveOptions{Gamma: 1 + eps/2, Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		sched = res.Schedule
		fmt.Printf("(1+%g)-approx cost %.4f (operating %.4f, switching %.4f), lattice %d\n",
			eps, res.Cost(), res.Breakdown.Operating, res.Breakdown.Switching, res.LatticeSize)
	case "online-a", "online-b", "online-c":
		var alg rightsizing.Online
		switch mode {
		case "online-a":
			alg, err = rightsizing.NewAlgorithmA(ins.Types)
		case "online-b":
			alg, err = rightsizing.NewAlgorithmB(ins.Types)
		default:
			alg, err = rightsizing.NewAlgorithmC(ins.Types, eps)
		}
		if err != nil {
			log.Fatal(err)
		}
		sched = rightsizing.Run(alg, ins)
		m := rightsizing.Measure(ins, sched, alg.Name(), 0)
		fmt.Printf("%s cost %.4f (operating %.4f, switching %.4f)\n",
			m.Name, m.Total, m.Operating, m.Switching)
		if opt, err := rightsizing.OptimalCost(ins); err == nil {
			fmt.Printf("hindsight optimum %.4f -> ratio %.4f\n", opt, m.Total/opt)
		}
	default:
		log.Fatalf("unknown mode %q", mode)
	}

	if err := ins.Feasible(sched); err != nil {
		log.Fatalf("internal error: produced schedule is infeasible: %v", err)
	}
	if printSched {
		fmt.Println("\nslot  demand  configuration")
		for t := 1; t <= ins.T(); t++ {
			fmt.Printf("%4d  %6.2f  %v\n", t, ins.Lambda[t-1], sched[t-1])
		}
	}
	if render {
		fmt.Println()
		fmt.Print(engine.RenderSchedule(ins, sched, 96))
	}
}

// runComparison measures every applicable algorithm on the instance as a
// one-off engine scenario (OPT solved once, ε from the command line for
// Algorithm C), resolving the line-up from the algorithm registry.
func runComparison(ins *rightsizing.Instance, eps float64) {
	lineup := make([]rightsizing.AlgSpec, 0, 7)
	for _, key := range []string{"alg-a", "alg-b"} {
		s, ok := rightsizing.LookupAlgorithm(key)
		if !ok {
			log.Fatalf("stock algorithm %q missing from registry", key)
		}
		lineup = append(lineup, s)
	}
	lineup = append(lineup, rightsizing.AlgorithmCSpec(eps))
	for _, key := range []string{"all-on", "load-tracking", "ski-rental", "lcp"} {
		s, ok := rightsizing.LookupAlgorithm(key)
		if !ok {
			log.Fatalf("stock algorithm %q missing from registry", key)
		}
		lineup = append(lineup, s)
	}
	sc := rightsizing.Scenario{
		Name:       "instance",
		Instance:   func(int64) *rightsizing.Instance { return ins },
		Algorithms: lineup,
	}
	res, err := rightsizing.EvaluateScenario(sc, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Table())
	for _, s := range res.Skipped {
		fmt.Printf("(skipped %s)\n", s)
	}
}
