// Command paperfig regenerates the five figures of Albers & Quedenfeld
// (SPAA 2021) as ASCII renderings, driven by the production algorithm
// implementations, and — beyond the paper — renders any scenario from the
// engine's registry the same way: the optimal schedule chart plus the
// measured algorithm table.
//
// Usage:
//
//	paperfig             # all five paper figures
//	paperfig -fig 3      # one paper figure
//	paperfig -scenario diurnal [-seed 1]   # a registry workload as a "figure"
//	paperfig -list       # figures and scenarios available
package main

import (
	"flag"
	"fmt"
	"log"

	rightsizing "repro"
	"repro/internal/engine"
	"repro/internal/figures"
)

var renderers = map[int]func() string{
	1: figures.RenderFigure1,
	2: figures.RenderFigure2,
	3: figures.RenderFigure3,
	4: figures.RenderFigure4,
	5: figures.RenderFigure5,
}

func main() {
	log.SetFlags(0)
	fig := flag.Int("fig", 0, "figure number (1-5); 0 renders all")
	scenario := flag.String("scenario", "", "render a registered scenario instead of a paper figure")
	seed := flag.Int64("seed", 1, "scenario seed")
	list := flag.Bool("list", false, "list available figures and scenarios")
	flag.Parse()

	switch {
	case *list:
		fmt.Println("paper figures: 1 2 3 4 5 (-fig N)")
		fmt.Println("registry scenarios (-scenario NAME):")
		for _, sc := range rightsizing.Scenarios() {
			fmt.Printf("  %s  %s\n", sc.Name, sc.Doc)
		}
	case *scenario != "":
		renderScenario(*scenario, *seed)
	case *fig != 0:
		r, ok := renderers[*fig]
		if !ok {
			log.Fatalf("paperfig: no figure %d (have 1-5)", *fig)
		}
		fmt.Println(r())
	default:
		for i := 1; i <= 5; i++ {
			fmt.Println(renderers[i]())
			fmt.Println()
		}
	}
}

// renderScenario draws a registry workload through the engine: the metric
// table for every applicable algorithm and the optimal schedule chart.
func renderScenario(name string, seed int64) {
	sc, ok := rightsizing.LookupScenario(name)
	if !ok {
		log.Fatalf("paperfig: unknown scenario %q (-list shows the registry)", name)
	}
	res, err := rightsizing.RunSuite([]rightsizing.Scenario{sc}, rightsizing.SuiteOptions{
		Seed:          seed,
		KeepSchedules: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	r := res.Results[0]
	fmt.Printf("Scenario %s (seed %d): %s\n\n", sc.Name, seed, sc.Doc)
	fmt.Print(r.Table())
	for _, s := range r.Skipped {
		fmt.Printf("(skipped %s)\n", s)
	}
	ins := sc.Instance(seed)
	fmt.Println("\noptimal schedule:")
	fmt.Print(engine.RenderSchedule(ins, r.Schedules[0], 96))
}
