// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator and the trial server only through their Go APIs and
// times every call into a layer from outside:
//
//	perfbench --workload fig7a|server --seed N --seconds S --trace 0|1
//
// One run executes one workload in this process. After a set-up phase
// it repeats whole passes of the workload's fixed operations until S
// seconds have passed, then checks the outputs apart from the timed
// section. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it records a span around every layer call, writes the spans
// out at the end, and prints the per-layer metrics instead. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 975, "failed": 0, "metrics": {"trials_per_s": {"value": 48.7, "unit": "trials/s"}, ...}}
//
// See README.md for the workloads, the metrics and the layer mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// hardLimit bounds one run: the watchdog ends the process if a run
// (set-up, timed phase and checks) has not finished by then.
const hardLimit = 170 * time.Second

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back to main: the operation
// counts, the end-to-end metrics of an untraced run or the per-layer
// metrics of a traced one, and the failed checks (empty when every
// output was correct).
type outcome struct {
	attempted int64
	failed    int64
	metrics   map[string]metric
	problems  []string
}

// workloadFunc runs one workload. tr is nil on untraced runs.
type workloadFunc func(seed int64, seconds time.Duration, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"fig7a":  runFig7a,
	"server": runServer,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fig7a|server")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		spans   = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want fig7a or server)", *name))
	}
	if *seconds < 1 || *seconds > 120 {
		fail(fmt.Errorf("--seconds %d outside 1..120", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace %d is neither 0 nor 1", *trace))
	}
	watchdog := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s, exiting\n", hardLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	out, err := run(*seed, time.Duration(*seconds)*time.Second, tr)
	if err != nil {
		fail(err)
	}
	if tr != nil {
		path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := tr.write(path); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", tr.len(), path)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(report{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fail(err)
	}
	printSummary(out.metrics)
	fmt.Println(string(line))
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

// printSummary lists the metrics one per line ahead of the JSON line.
func printSummary(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
