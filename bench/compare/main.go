// Command compare judges two sets of benchmark results against the bounds
// in BENCHMARK.json: typically runs of a parent commit and of a change,
// made with the same -seconds and alternating seeds.
//
// Usage, from the bench directory:
//
//	go run ./compare [-spec ../BENCHMARK.json] [-claim WORKLOAD/METRIC] BASE HEAD
//	go run ./compare SET
//
// BASE and HEAD are each a result file written by the benchmark's -out
// flag, or a directory of them. For every workload and end-to-end metric
// compare prints both sides' median and quartiles and a verdict:
//
//   - ok: the head's median is no worse than the base's by more than the
//     metric's bound, and both sides' spreads (quartile distance over
//     median) are within it; or every head run reads better than every
//     base run.
//   - unresolved: a side's spread is wider than the bound, so the runs
//     cannot tell a change of that size from noise.
//   - regressed: spreads are within the bound and the head's median is
//     worse by more than it.
//
// It also prints each side's failed share. With -claim it applies the rule
// for claiming a gain on one metric: runs are paired in file-name order,
// the head must win at least nine tenths of the pairs (ties count for
// neither), and the medians must differ by more than the base's quartile
// distance. The exit status is 1 when a metric regressed or a claim is not
// met.
//
// Given one set, compare summarises it: every metric's median, quartiles
// and spread per workload, or its value when every run reads the same.
// The summary includes the diagnostics the runs print; the verdicts and
// claims are about end-to-end metrics only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []bound `json:"end_to_end"`
}

type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// report is what the benchmark's -out flag writes.
type report struct {
	Results []struct {
		Workload  string           `json:"workload"`
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
		Extra     map[string]value `json:"extra"` // diagnostics
	} `json:"results"`
}

type value struct {
	Value float64 `json:"value"`
}

// side is one set of runs: per workload and metric the values in run
// order, and per workload the pushes attempted and failed and the runs
// that failed their correctness gate.
type side struct {
	values    map[string]map[string][]float64
	attempted map[string]int
	failed    map[string]int
	incorrect map[string]int
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("compare: ")
	specPath := flag.String("spec", "../BENCHMARK.json", "the benchmark definition with the metric bounds")
	claim := flag.String("claim", "", "WORKLOAD/METRIC: also apply the gain-claim rule to this metric")
	flag.Parse()
	if flag.NArg() == 1 {
		set, err := load(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		summarize(set)
		return
	}
	if flag.NArg() != 2 {
		log.Fatal("usage: compare [-spec FILE] [-claim WORKLOAD/METRIC] BASE HEAD, or compare SET")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		log.Fatalf("%s: %v", *specPath, err)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	head, err := load(flag.Arg(1))
	if err != nil {
		log.Fatal(err)
	}
	rows := table(sp, base, head)
	bad := false
	fmt.Printf("%-15s %-24s %-36s %-36s %8s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "verdict")
	for _, r := range rows {
		fmt.Printf("%-15s %-24s %-36s %-36s %+7.1f%%  %s\n", r.workload, r.metric, r.base, r.head, r.change*100, r.verdict)
		bad = bad || r.verdict == "regressed"
	}
	for _, w := range workloadNames(base, head) {
		fmt.Printf("%-15s failed_share base %s head %s\n", w, failedShare(base, w), failedShare(head, w))
	}
	if *claim != "" {
		w, m, ok := strings.Cut(*claim, "/")
		b, found := lookup(sp, m)
		if !ok || !found {
			log.Fatalf("-claim %q: want WORKLOAD/METRIC with METRIC in end_to_end", *claim)
		}
		c := judgeClaim(base.values[w][m], head.values[w][m], b.Better)
		fmt.Printf("claim %s: head wins %d of %d pairs, median change %+.4g against base quartile distance %.4g: %s\n",
			*claim, c.wins, c.pairs, c.diff, c.baseIQR, map[bool]string{true: "met", false: "not met"}[c.met])
		bad = bad || !c.met
	}
	if bad {
		os.Exit(1)
	}
}

// load reads a result file, or every .json file of a directory in name
// order.
func load(path string) (*side, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	s := &side{values: map[string]map[string][]float64{}, attempted: map[string]int{},
		failed: map[string]int{}, incorrect: map[string]int{}}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range rep.Results {
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = map[string][]float64{}
			}
			for _, group := range []map[string]value{r.Metrics, r.Extra} {
				for name, m := range group {
					s.values[r.Workload][name] = append(s.values[r.Workload][name], m.Value)
				}
			}
			s.attempted[r.Workload] += r.Attempted
			s.failed[r.Workload] += r.Failed
			if !r.Correct {
				s.incorrect[r.Workload]++
			}
		}
	}
	if len(s.values) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return s, nil
}

// summarize prints every metric of one set of runs.
func summarize(s *side) {
	for _, w := range workloadNames(s) {
		names := make([]string, 0, len(s.values[w]))
		for name := range s.values[w] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			v := s.values[w][name]
			if slices.Min(v) == slices.Max(v) {
				fmt.Printf("%-15s %-32s %.4g (%d runs)\n", w, name, v[0], len(v))
				continue
			}
			q := quartiles(v)
			fmt.Printf("%-15s %-32s %.4g [%.4g, %.4g] spread %.3f (%d runs)\n", w, name, q[1], q[0], q[2], spread(v), len(v))
		}
		fmt.Printf("%-15s failed_share %s\n", w, failedShare(s, w))
	}
}

func lookup(sp spec, metric string) (bound, bool) {
	for _, b := range sp.EndToEnd {
		if b.Name == metric {
			return b, true
		}
	}
	return bound{}, false
}

func workloadNames(sides ...*side) []string {
	var out []string
	for _, s := range sides {
		for w := range s.values {
			if !slices.Contains(out, w) {
				out = append(out, w)
			}
		}
	}
	sort.Strings(out)
	return out
}

func failedShare(s *side, w string) string {
	out := fmt.Sprintf("%d/%d", s.failed[w], s.attempted[w])
	if n := s.incorrect[w]; n > 0 {
		out += fmt.Sprintf(" (%d runs incorrect)", n)
	}
	return out
}

type row struct {
	workload, metric string
	base, head       string
	change           float64 // relative change of the median, positive when worse
	verdict          string
}

// table judges every workload and end-to-end metric present on both sides.
func table(sp spec, base, head *side) []row {
	var rows []row
	for _, w := range workloadNames(base, head) {
		for _, b := range sp.EndToEnd {
			bv, hv := base.values[w][b.Name], head.values[w][b.Name]
			if len(bv) < 2 || len(hv) < 2 {
				rows = append(rows, row{workload: w, metric: b.Name, change: math.NaN(),
					verdict: "unresolved (fewer than 2 runs on a side)"})
				continue
			}
			bq, hq := quartiles(bv), quartiles(hv)
			rows = append(rows, row{
				workload: w, metric: b.Name,
				base:    fmt.Sprintf("%.4g [%.4g, %.4g]", bq[1], bq[0], bq[2]),
				head:    fmt.Sprintf("%.4g [%.4g, %.4g]", hq[1], hq[0], hq[2]),
				change:  worsening(bq[1], hq[1], b.Better),
				verdict: judge(bv, hv, b.Better, b.Bound),
			})
		}
	}
	return rows
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so they agree with other tools reading the same
// runs. It needs at least two values.
func quartiles(values []float64) [3]float64 {
	d := slices.Sorted(slices.Values(values))
	n := len(d)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - 4*j
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// worsening is how much worse head is than base, relative to base:
// positive when worse in the metric's direction.
func worsening(base, head float64, better string) float64 {
	if better == "higher" {
		return (base - head) / base
	}
	return (head - base) / base
}

// spread is the quartile distance over the median.
func spread(values []float64) float64 {
	q := quartiles(values)
	return (q[2] - q[0]) / q[1]
}

// judge returns ok, unresolved or regressed; see the package comment.
func judge(base, head []float64, better string, bound float64) string {
	if allBetter(base, head, better) {
		return "ok"
	}
	if spread(base) > bound || spread(head) > bound {
		return "unresolved"
	}
	if worsening(quartiles(base)[1], quartiles(head)[1], better) > bound {
		return "regressed"
	}
	return "ok"
}

// allBetter reports whether every head value beats every base value.
func allBetter(base, head []float64, better string) bool {
	bmin, bmax := slices.Min(base), slices.Max(base)
	hmin, hmax := slices.Min(head), slices.Max(head)
	if better == "higher" {
		return hmin > bmax
	}
	return hmax < bmin
}

type claimResult struct {
	wins, pairs   int
	diff, baseIQR float64
	met           bool
}

// judgeClaim applies the gain-claim rule to runs paired by position.
func judgeClaim(base, head []float64, better string) claimResult {
	c := claimResult{pairs: min(len(base), len(head))}
	if c.pairs < 2 {
		return c
	}
	for i := range c.pairs {
		if worsening(base[i], head[i], better) < 0 {
			c.wins++
		}
	}
	bq, hq := quartiles(base), quartiles(head)
	c.diff = hq[1] - bq[1]
	c.baseIQR = bq[2] - bq[0]
	gain := -c.diff
	if better == "higher" {
		gain = c.diff
	}
	c.met = 10*c.wins >= 9*c.pairs && gain > c.baseIQR
	return c
}
