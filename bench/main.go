// Command bench is the repository benchmark: it drives the rightsized
// advisory daemon with four workloads over loopback HTTP and reports the
// end-to-end metrics a user of the daemon sees, or, with -trace 1, the
// per-layer metrics of a traced in-process run. bench/README.md explains
// the workloads, the metrics and how to compare two commits.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload all|NAME] [-seed 1] [-seconds 20] [-trace 0|1]
//	                  [-spans FILE] [-out FILE]
//
// Each metric is printed as "workload metric value unit". The last line of
// standard output is one JSON object {"correct", "attempted", "failed",
// "metrics"}; -out writes every result, diagnostics included, as JSON.
// The exit status is 1 when a run fails its correctness gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"daemon_cpu_us_per_slot", "us"},
	{"daemon_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"net.rtt_us.p50", "us"},
	{"net.rtt_us.p99", "us"},
	{"net.self_us.p50", "us"},
	{"serve.http_us.p50", "us"},
	{"serve.http_us.p99", "us"},
	{"serve.http_self_us.p50", "us"},
	{"ladder.handler.ns_per_req", "ns"},
	{"ladder.handler.allocs_per_req", "count"},
	{"ladder.wire.decode_ns_per_req", "ns"},
	{"ladder.wire.encode_ns_per_req", "ns"},
	{"ladder.manager.ns_per_slot", "ns"},
	{"ladder.manager.allocs_per_slot", "count"},
	{"ladder.stream.ns_per_slot", "ns"},
	{"ladder.stream.allocs_per_slot", "count"},
	{"ladder.stream.bytes_per_slot", "B"},
	{"ladder.stream_noopt.ns_per_slot", "ns"},
	{"solver.memo_hit_ratio", "ratio"},
	{"wal.write_us.p50", "us"},
	{"wal.writes_per_slot", "count"},
	{"wal.sync_us.p50", "us"},
	{"wal.sync_us.p99", "us"},
	{"wal.syncs_per_slot", "count"},
	{"store.load_ms.p50", "ms"},
	{"store.load_ms.p99", "ms"},
	{"store.loads", "count"},
	{"store.save_ms.p50", "ms"},
	{"store.saves", "count"},
	{"store.snapshot_kb.mean", "KB"},
	{"ladder.resume.ms", "ms"},
	{"serve.resumes_per_push", "ratio"},
	{"sse.deliver_us.p50", "us"},
	{"sse.deliver_us.p99", "us"},
	{"loadgen.late_ms.p99", "ms"},
	{"trace.overhead_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values picks defs' metrics out of vals; every def must be present.
func values(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("bench: no value for metric " + d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	return out
}

// result is one workload's run.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
}

// report is what -out writes and bench/compare reads.
type report struct {
	Seed    int64     `json:"seed"`
	Seconds int       `json:"seconds"`
	Trace   int       `json:"trace"`
	Results []*result `json:"results"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed the workloads' inputs are generated from")
	seconds := flag.Int("seconds", 20, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 runs the traced in-process run and reports the per-layer metrics")
	spans := flag.String("spans", "", "traced run: write the spans as JSONL here (default .bench_build/spans-WORKLOAD.jsonl)")
	out := flag.String("out", "", "also write the results, diagnostics included, as JSON to this file")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ws := workloads
	if *name != "all" {
		w, ok := lookupWorkload(*name)
		if !ok {
			log.Fatalf("unknown workload %q", *name)
		}
		ws = []workload{w}
	}

	root, err := repoRoot()
	if err != nil {
		log.Fatal(err)
	}
	work := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(work, "tmp"), 0o755); err != nil {
		log.Fatal(err)
	}
	var bin string
	if *trace == 0 {
		if bin, err = buildDaemon(root, work); err != nil {
			log.Fatal(err)
		}
		if err := pinClient(); err != nil {
			log.Fatal(err)
		}
	}

	run := time.Duration(*seconds) * time.Second
	rep := report{Seed: *seed, Seconds: *seconds, Trace: *trace}
	for _, w := range ws {
		var r *result
		if *trace == 1 {
			path := *spans
			if path == "" {
				path = filepath.Join(work, "spans-"+w.name+".jsonl")
			} else if len(ws) > 1 {
				path = path + "." + w.name
			}
			r, err = runTraced(w, *seed, run, work, path)
		} else {
			r, err = runDaemon(bin, w, *seed, run, work)
		}
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		r.Correct = len(r.Problems) == 0
		printResult(r)
		rep.Results = append(rep.Results, r)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	ok := summary(rep.Results)
	if !ok {
		os.Exit(1)
	}
}

// printResult prints every metric as "workload metric value unit", the
// reported ones first, then the diagnostics; problems go to stderr.
func printResult(r *result) {
	for _, group := range []map[string]metric{r.Metrics, r.Extra} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%s %s %s %s\n", r.Workload, n, strconv.FormatFloat(group[n].Value, 'g', -1, 64), group[n].Unit)
		}
	}
	fmt.Printf("%s attempted %d count\n%s failed %d count\n", r.Workload, r.Attempted, r.Workload, r.Failed)
	for _, p := range r.Problems {
		log.Printf("%s: %s", r.Workload, p)
	}
}

// summary prints the final JSON line and reports whether every run was
// correct. With several workloads the metric names carry a
// "workload/" prefix.
func summary(rs []*result) bool {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for n, m := range r.Metrics {
			if len(rs) > 1 {
				n = r.Workload + "/" + n
			}
			line.Metrics[n] = m
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data))
	return line.Correct
}

// repoRoot finds the checkout the benchmark builds: the nearest directory
// at or above the working directory holding go.mod and cmd/rightsized.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "rightsized", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout with cmd/rightsized at or above the working directory")
		}
		dir = parent
	}
}
