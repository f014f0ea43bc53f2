package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"ioguard/internal/baseline"
	"ioguard/internal/core"
	"ioguard/internal/experiments"
	"ioguard/internal/metrics"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
	"ioguard/internal/workload"
)

// Workload constants. fig7a is the cells of `ioguard-experiments -exp
// fig7a -trials 5 -hyperperiods 3 -seed <seed>`, run on every system;
// avionics, which only the dense-oracle test runs, is the ARINC-653
// stress cell of the RunAvionics benchmark under several fleet seeds.
const (
	fig7aVMs          = 4
	fig7aTrials       = 5
	fig7aHyperPeriods = 3

	avionicsVMs    = 4
	avionicsFleets = 10
)

// group is one generated task set that every system of the workload
// runs: a (utilization, trial) cell of Fig. 7, or one avionics fleet.
type group struct {
	util    float64 // target utilization (fig7a); 0 for avionics
	seed    int64   // workload and fleet seed
	tasks   task.Set
	horizon slot.Time
}

// simWorkload describes a workload that drives system.Run directly.
type simWorkload struct {
	vms     int
	systems []string
	// generate makes the workload's task sets from the seed, recording
	// a workload.generate span per call when tr is non-nil.
	generate func(seed int64, tr *tracer) ([]group, error)
	// render prints the pass's aggregates with
	// experiments.RenderCaseStudy (the Fig. 7 tables).
	render bool
}

// fig7aWorkload runs BS|PART beside the five case-study systems, so
// every system.Run layer is timed; RenderCaseStudy leaves it out of
// the tables, which therefore still equal `-exp fig7a`'s.
func fig7aWorkload() simWorkload {
	return simWorkload{
		vms:      fig7aVMs,
		systems:  experiments.AllSystemNames(),
		generate: generateFig7a,
		render:   true,
	}
}

func avionicsWorkload() simWorkload {
	return simWorkload{
		vms:      avionicsVMs,
		systems:  experiments.AllSystemNames(),
		generate: generateAvionics,
	}
}

func runFig7a(seed int64, seconds time.Duration, tr *tracer) (*outcome, error) {
	return runSim(fig7aWorkload(), seed, seconds, tr)
}

// fig7aSeed is the per-(utilization, trial) seed experiments.CaseStudy
// derives, so the groups are the cells `ioguard-experiments -exp
// fig7a -seed <seed>` runs.
func fig7aSeed(base int64, trial int, util float64) int64 {
	return base + int64(trial)*7919 + int64(math.Round(util*100))
}

func generateFig7a(seed int64, tr *tracer) ([]group, error) {
	var out []group
	for _, util := range experiments.DefaultUtils() {
		for trial := 0; trial < fig7aTrials; trial++ {
			s := fig7aSeed(seed, trial, util)
			sp := tr.begin("workload.generate", -1, s)
			ts, err := workload.Generate(workload.Config{VMs: fig7aVMs, TargetUtil: util, Seed: s})
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("fig7a: generating U=%.2f trial %d: %w", util, trial, err)
			}
			out = append(out, group{util: util, seed: s, tasks: ts, horizon: ts.Hyperperiod() * fig7aHyperPeriods})
		}
	}
	return out, nil
}

// avionicsSeed spreads the fleets of one benchmark seed apart.
func avionicsSeed(base int64, fleet int) int64 {
	return base*104729 + int64(fleet)*7919 + 1
}

func generateAvionics(seed int64, tr *tracer) ([]group, error) {
	out := make([]group, 0, avionicsFleets)
	for f := 0; f < avionicsFleets; f++ {
		s := avionicsSeed(seed, f)
		sp := tr.begin("workload.generate", -1, s)
		ts, err := workload.GenerateAvionics(workload.AvionicsConfig{VMs: avionicsVMs, Seed: s})
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("avionics: generating fleet %d: %w", f, err)
		}
		out = append(out, group{seed: s, tasks: ts, horizon: ts.Hyperperiod()})
	}
	return out, nil
}

// layerKey maps each system to the suffix of its system.run_ms metric.
var layerKey = map[string]string{
	"BS|Legacy":    "legacy",
	"BS|RT-XEN":    "rtxen",
	"BS|BV":        "bv",
	"BS|PART":      "part",
	"I/O-GUARD-40": "ioguard40",
	"I/O-GUARD-70": "ioguard70",
}

// isIOGuard reports whether a case-study system is built by core.New.
func isIOGuard(name string) bool { return strings.HasPrefix(name, "I/O-GUARD") }

// trialOf builds the trial of one group. Each trial gets its own copy
// of the task set, as system.RunCells gives every cell.
func (w simWorkload) trialOf(g group) system.Trial {
	return system.Trial{
		VMs:     w.vms,
		Tasks:   append(task.Set(nil), g.tasks...),
		Horizon: g.horizon,
		Seed:    g.seed,
	}
}

// passResult is one pass over every (group, system) cell.
type passResult struct {
	trial   []time.Duration // per cell, in group-major order
	group   []time.Duration // per group: every system on its task set
	total   time.Duration
	results []*metrics.TrialResult // per cell; kept for the first pass only
	render  string
	failed  int
	counts  simCounts // filled on traced runs only
}

// runPass runs every cell once on this goroutine, folds the results
// into per-(system, utilization) aggregates as experiments.CaseStudy
// does, and renders them. Traced runs wrap each builder to time the
// constructor and to read the counters of the system it returned.
func (w simWorkload) runPass(groups []group, builders map[string]system.Builder, tr *tracer, pass int) passResult {
	n := len(groups) * len(w.systems)
	pr := passResult{trial: make([]time.Duration, 0, n), group: make([]time.Duration, 0, len(groups))}
	keep := pass == 0
	if keep {
		pr.results = make([]*metrics.TrialResult, 0, n)
	}
	type key struct {
		sys  string
		util float64
	}
	aggs := map[key]*metrics.Aggregate{}
	passStart := time.Now()
	passSpan := tr.begin("pass", -1, int64(pass))
	for gi, g := range groups {
		id := int64(pass*len(groups) + gi)
		groupStart := time.Now()
		groupSpan := tr.begin("group", passSpan, id)
		for _, name := range w.systems {
			build := builders[name]
			trial := w.trialOf(g)
			var built system.System
			runSpan := tr.begin("system.run."+layerKey[name], groupSpan, id)
			if tr != nil {
				inner, buildName := build, "baseline.build"
				if isIOGuard(name) {
					buildName = "core.build"
				}
				build = func(t system.Trial, col *system.Collector) (system.System, error) {
					sp := tr.begin(buildName, runSpan, id)
					s, err := inner(t, col)
					tr.end(sp)
					built = s
					return s, err
				}
			}
			t0 := time.Now()
			res, err := system.Run(build, trial)
			pr.trial = append(pr.trial, time.Since(t0))
			tr.end(runSpan)
			if keep {
				pr.results = append(pr.results, res)
			}
			if err != nil {
				pr.failed++
				continue
			}
			if tr != nil && keep {
				pr.counts.add(res, built)
			}
			k := key{name, g.util}
			agg := aggs[k]
			if agg == nil {
				agg = &metrics.Aggregate{}
				aggs[k] = agg
			}
			sp := tr.begin("metrics.fold", groupSpan, id)
			agg.AddTrial(res)
			tr.end(sp)
		}
		tr.end(groupSpan)
		pr.group = append(pr.group, time.Since(groupStart))
	}
	if w.render {
		var points []experiments.CaseStudyPoint
		for _, util := range experiments.DefaultUtils() {
			for _, name := range w.systems {
				if agg := aggs[key{name, util}]; agg != nil {
					points = append(points, experiments.CaseStudyPoint{System: name, Util: util, Agg: agg})
				}
			}
		}
		sp := tr.begin("experiments.render", passSpan, int64(pass))
		pr.render = experiments.RenderCaseStudy(points, w.vms)
		tr.end(sp)
	}
	tr.end(passSpan)
	pr.total = time.Since(passStart)
	return pr
}

// simCounts are the simulated work of one pass, read after each trial
// from the result and the system the builder returned. They depend
// only on the inputs, so they stay identical under any change that
// only speeds up the simulator.
type simCounts struct {
	released, completed, unfinished, slots  int64
	pUsed, pIdle, rUsed, reclaimed, preempt int64
	injected, forwarded, delay              int64
}

func (c *simCounts) add(res *metrics.TrialResult, sys system.System) {
	c.released += res.Released
	c.completed += res.Completed
	c.unfinished += res.Unfinished
	c.slots += int64(res.Horizon)
	switch s := sys.(type) {
	case *core.System:
		for _, st := range s.Hypervisor().Stats() {
			c.pUsed += st.PSlotsUsed
			c.pIdle += st.PSlotsIdle
			c.rUsed += st.RSlotsUsed
			c.reclaimed += st.Reclaimed
			c.preempt += st.Preemptions
		}
	case *baseline.Legacy:
		st := s.MeshStats()
		c.injected += st.Injected
		c.forwarded += st.Forwarded
		c.delay += int64(st.TotalDelay)
	}
}

func (c simCounts) metrics(out map[string]metric) {
	for name, v := range map[string]int64{
		"system.jobs_released":    c.released,
		"system.jobs_completed":   c.completed,
		"system.jobs_unfinished":  c.unfinished,
		"system.sim_slots":        c.slots,
		"hypervisor.p_slots_used": c.pUsed,
		"hypervisor.p_slots_idle": c.pIdle,
		"hypervisor.r_slots_used": c.rUsed,
		"hypervisor.reclaimed":    c.reclaimed,
		"hypervisor.preemptions":  c.preempt,
		"noc.injected":            c.injected,
		"noc.forwarded":           c.forwarded,
		"noc.delay_slots":         c.delay,
	} {
		out[name] = metric{float64(v), "count/pass"}
	}
}

// runSim is one run of a simulator workload: set-up, timed passes
// until seconds have passed, then the checks.
func runSim(w simWorkload, seed int64, seconds time.Duration, tr *tracer) (*outcome, error) {
	setup, err := repeatMedian(15, 10000, 300*time.Millisecond, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := w.generate(seed, nil)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	groups, err := w.generate(seed, tr)
	if err != nil {
		return nil, err
	}
	builders := experiments.Builders()

	var passes []passResult
	before := memSnapshot()
	start := time.Now()
	deadline := start.Add(seconds)
	for len(passes) == 0 || time.Now().Before(deadline) {
		passes = append(passes, w.runPass(groups, builders, tr, len(passes)))
	}
	wall := time.Since(start)
	mem := memSince(before)

	out := &outcome{metrics: map[string]metric{}}
	cells := len(groups) * len(w.systems)
	for _, p := range passes {
		out.attempted += int64(cells)
		out.failed += int64(p.failed)
	}
	out.problems = w.check(seed, groups, passes)

	if tr == nil {
		m := out.metrics
		trials := cellMedians(passes, func(p passResult) []time.Duration { return p.trial })
		reqs := cellMedians(passes, func(p passResult) []time.Duration { return p.group })
		var sweeps []float64
		for _, p := range passes {
			sweeps = append(sweeps, ms(p.total))
		}
		m["setup_s"] = metric{setup.Seconds(), "s"}
		m["trials_per_s"] = metric{float64(out.attempted-out.failed) / wall.Seconds(), "trials/s"}
		m["trial_ms_p90"] = metric{percentile(trials, 90), "ms"}
		m["request_ms_p50"] = metric{percentile(reqs, 50), "ms"}
		m["request_ms_p90"] = metric{percentile(reqs, 90), "ms"}
		m["sweep_ms_p50"] = metric{median(sweeps), "ms"}
		m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
		fmt.Printf("samples: %d passes; trial_ms over %d cells, request_ms over %d groups (medians of %d passes each); sweep_ms over %d passes\n",
			len(passes), cells, len(groups), len(passes), len(passes))
	} else {
		m := out.metrics
		self := tr.selfTimes()
		m["workload.generate_ms"] = metric{self["workload.generate"].meanMs(), "ms"}
		m["core.build_ms"] = metric{self["core.build"].meanMs(), "ms"}
		m["baseline.build_ms"] = metric{self["baseline.build"].meanMs(), "ms"}
		for _, name := range w.systems {
			k := layerKey[name]
			m["system.run_ms."+k] = metric{self["system.run."+k].meanMs(), "ms"}
		}
		m["metrics.fold_ms"] = metric{self["metrics.fold"].meanMs(), "ms"}
		if w.render {
			m["experiments.render_ms"] = metric{self["experiments.render"].meanMs(), "ms"}
		}
		runtimeMetrics(mem, out.attempted, m)
		passes[0].counts.metrics(m)
		printShares(self, wall)
		fmt.Fprintf(os.Stderr, "traced trials_per_s %.4f\n", float64(out.attempted-out.failed)/wall.Seconds())
	}
	if out.metrics, err = finish(out.metrics, tr != nil); err != nil {
		return nil, err
	}
	return out, nil
}

// cellMedians returns, for each cell position, the median of its
// durations across passes, in milliseconds. Every pass runs the same
// cells, so the median removes host noise from each cell before the
// percentiles are taken across cells.
func cellMedians(passes []passResult, of func(passResult) []time.Duration) []float64 {
	n := len(of(passes[0]))
	out := make([]float64, n)
	xs := make([]float64, len(passes))
	for i := 0; i < n; i++ {
		for p := range passes {
			xs[p] = ms(of(passes[p])[i])
		}
		out[i] = median(xs)
	}
	return out
}

// printShares writes each layer's share of the timed wall time to
// standard error: the numbers README.md's layer table records.
func printShares(self map[string]layerTime, wall time.Duration) {
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lt := self[name]
		fmt.Fprintf(os.Stderr, "layer %-28s calls=%-7d self=%10.1f ms  share=%5.1f%%\n",
			name, lt.calls, ms(lt.self), 100*float64(lt.self)/float64(wall))
	}
}
