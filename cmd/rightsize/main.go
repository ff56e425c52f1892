// Command rightsize solves data-center right-sizing workloads: either a
// JSON instance file, a named scenario from the engine's registry, or a
// live demand stream advised slot-by-slot.
//
// Usage:
//
//	rightsize -input instance.json [-mode optimal|approx|online-a|online-b|online-c]
//	          [-eps 0.5] [-schedule] [-render] [-compare]
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
// concurrently (deterministic for any -workers value).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

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
	workers := flag.Int("workers", rightsizing.AutoWorkers, "suite worker pool size (-1 = one per CPU)")
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
		// Streams default to serial trackers (per-slot lattices are small);
		// an explicit -workers is plumbed into the algorithm's prefix
		// tracker and the session's telemetry tracker.
		streamWorkers := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				streamWorkers = *workers
			}
		})
		if *batch < 1 {
			log.Fatalf("-batch must be >= 1, got %d", *batch)
		}
		if *serveURL != "" {
			runStreamRemote(*serveURL, *alg, *fleet, *input, *seed, *replay, *interval, *checkpoint, *resume, *batch)
		} else {
			runStream(*alg, *fleet, *input, *seed, *replay, *interval, *checkpoint, *resume, streamWorkers, *batch)
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

// streamFleet resolves the stream mode's fleet template and optional
// replay trace.
func streamFleet(fleet, input string, seed int64) ([]rightsizing.ServerType, []float64) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			log.Fatal(err)
		}
		ins, err := rightsizing.ParseInstance(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		return ins.Types, ins.Lambda
	}
	sc, ok := rightsizing.LookupScenario(fleet)
	if !ok {
		log.Fatalf("unknown fleet scenario %q; -list shows the registry", fleet)
	}
	ins := sc.Instance(seed)
	return ins.Types, ins.Lambda
}

// runStream drives a live advisory session: demand arrives on stdin (one
// value per line) or from the replayed trace, and one JSON advisory is
// written per decided slot. Demands are fed in batches of batch slots
// (Session.PushBatch); advisories are identical for any batch size.
func runStream(alg, fleet, input string, seed int64, replay bool, interval time.Duration, checkpointPath, resumePath string, workers, batch int) {
	types, trace := streamFleet(fleet, input, seed)
	opts := rightsizing.SessionOptions{Workers: workers}

	var sess *rightsizing.Session
	var err error
	if resumePath != "" {
		// The checkpoint names the algorithm; an explicit -alg alongside
		// -resume is a conflict, not a silent override.
		algSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "alg" {
				algSet = true
			}
		})
		if algSet {
			log.Fatal("-alg cannot be combined with -resume: the checkpoint determines the algorithm")
		}
		data, rerr := os.ReadFile(resumePath)
		if rerr != nil {
			log.Fatal(rerr)
		}
		var cp rightsizing.SessionCheckpoint
		if jerr := json.Unmarshal(data, &cp); jerr != nil {
			log.Fatal(jerr)
		}
		sess, err = rightsizing.ResumeSession(&cp, types, opts)
		if err == nil {
			fmt.Fprintf(os.Stderr, "rightsize: resumed %s at slot %d (cum cost %.4f)\n",
				sess.Name(), sess.Fed(), sess.CumCost())
		}
	} else {
		sess, err = rightsizing.OpenSession(alg, types, opts)
	}
	if err != nil {
		log.Fatal(err)
	}

	enc := json.NewEncoder(os.Stdout)
	emit := func(advs []rightsizing.Advisory) {
		for _, adv := range advs {
			if err := enc.Encode(adv); err != nil {
				log.Fatal(err)
			}
		}
	}

	pending := make([]rightsizing.SlotInput, 0, batch)
	advBuf := make([]rightsizing.Advisory, batch)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		n, err := sess.PushBatch(pending, advBuf)
		if err != nil {
			log.Fatal(err)
		}
		emit(advBuf[:n])
		pending = pending[:0]
	}
	feed := func(lambda float64) {
		pending = append(pending, rightsizing.SlotInput{Lambda: lambda})
		if len(pending) >= batch {
			flush()
		}
	}

	if replay {
		// A resumed session already holds its checkpointed prefix; replay
		// only the remainder of the trace so slots are not fed twice.
		if done := sess.Fed(); done < len(trace) {
			trace = trace[done:]
		} else {
			trace = nil
		}
		for _, lambda := range trace {
			feed(lambda)
			if interval > 0 && len(pending) == 0 { // a batch just flushed
				time.Sleep(interval)
			}
		}
	} else {
		scan := bufio.NewScanner(os.Stdin)
		for scan.Scan() {
			line := strings.TrimSpace(scan.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			lambda, err := strconv.ParseFloat(line, 64)
			if err != nil {
				log.Fatalf("bad demand line %q: %v", line, err)
			}
			feed(lambda)
		}
		if err := scan.Err(); err != nil {
			log.Fatal(err)
		}
	}
	flush()

	advs, err := sess.Close()
	if err != nil {
		log.Fatal(err)
	}
	emit(advs)
	fmt.Fprintf(os.Stderr, "rightsize: %s advised %d slots, total cost %.4f\n",
		sess.Name(), sess.Decided(), sess.CumCost())

	if checkpointPath != "" {
		cp := sess.Checkpoint()
		if !cp.Portable() {
			log.Fatal("session fed explicit cost functions; checkpoint is not JSON-portable")
		}
		data, err := json.MarshalIndent(cp, "", " ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(checkpointPath, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "rightsize: checkpoint written to %s\n", checkpointPath)
	}
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

func runInstanceFile(input, mode string, eps float64, printSched, render, compare bool, workers int) {
	f, err := os.Open(input)
	if err != nil {
		log.Fatal(err)
	}
	ins, err := rightsizing.ParseInstance(f)
	f.Close()
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
