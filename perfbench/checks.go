package main

import (
	"fmt"
	"reflect"

	"ioguard/internal/core"
	"ioguard/internal/experiments"
	"ioguard/internal/metrics"
	"ioguard/internal/slot"
	"ioguard/internal/system"
	"ioguard/internal/task"
)

// The checks run after the timed phase and never compare against a
// stored copy of earlier output: each one tests a property every
// system must have, or repeats a computation along a path apart from
// the measured one.

// maxProblems caps how many failed checks one run reports.
const maxProblems = 20

type problems []string

func (p *problems) addf(format string, args ...any) {
	if len(*p) < maxProblems {
		*p = append(*p, fmt.Sprintf(format, args...))
	}
}

// check runs every sim check: the per-trial properties on an
// instrumented rerun of one pass, the determinism of the timed passes,
// and for fig7a the dense oracle and the experiments.CaseStudy
// rerender.
func (w simWorkload) check(seed int64, groups []group, passes []passResult) []string {
	var p problems
	for i := 1; i < len(passes); i++ {
		if passes[i].render != passes[0].render {
			p.addf("pass %d rendered differently from pass 0", i)
		}
	}
	w.checkTrials(groups, passes[0].results, &p)
	if w.render {
		// The last group is the highest utilization: the busiest cell.
		w.checkDense(groups[len(groups)-1], &p)
		w.checkCaseStudy(seed, passes[0].render, &p)
	}
	return p
}

// observed is what a collector observer recounts during one trial.
type observed struct {
	completed, bytes int64
	residualDone     int64 // completions of tasks the fleet released
	lateP            int64 // P-channel completions after their deadline
	preloaded        map[int]bool
	sys              system.System
}

// instrumented wraps build so the trial's completions are recounted
// and the built system is kept for inspection.
func instrumented(build system.Builder, o *observed) system.Builder {
	return func(tr system.Trial, col *system.Collector) (system.System, error) {
		col.Observe(func(j *task.Job, at slot.Time) {
			o.completed++
			o.bytes += int64(j.Task.OpBytes)
			if o.preloaded[j.Task.ID] {
				if at > j.Deadline {
					o.lateP++
				}
				return
			}
			o.residualDone++
		})
		s, err := build(tr, col)
		if err != nil {
			return nil, err
		}
		o.sys = s
		if cs, ok := s.(*core.System); ok {
			for _, t := range cs.Preloaded() {
				o.preloaded[t.ID] = true
			}
		}
		return s, nil
	}
}

// checkTrials reruns every cell once with an instrumented builder and
// checks, per trial:
//   - recount: the observed completions and bytes equal Completed and
//     BytesServed;
//   - conservation: every released job completed, is still pending or
//     was dropped (for I/O-GUARD, counting residual tasks only, since
//     P-channel jobs are released inside the hypervisor);
//   - P-channel guarantee: no job of a σ* task completes late;
//   - identical input: every baseline of a group reports the same
//     Released;
//   - determinism: the rerun renders exactly as the timed trial did.
func (w simWorkload) checkTrials(groups []group, timed []*metrics.TrialResult, p *problems) {
	builders := experiments.Builders()
	cell := 0
	for gi, g := range groups {
		baselineReleased := int64(-1)
		for _, name := range w.systems {
			o := &observed{preloaded: map[int]bool{}}
			res, err := system.Run(instrumented(builders[name], o), w.trialOf(g))
			want := timed[cell]
			cell++
			where := fmt.Sprintf("%s group %d (seed %d)", name, gi, g.seed)
			if err != nil {
				p.addf("%s: rerun failed: %v", where, err)
				continue
			}
			if want == nil {
				p.addf("%s: timed trial failed", where)
				continue
			}
			if got, exp := experiments.RenderTrial(name, res), experiments.RenderTrial(name, want); got != exp || res.Released != want.Released {
				p.addf("%s: rerun differs from the timed trial:\n%s\nvs\n%s", where, got, exp)
			}
			if o.completed != res.Completed || o.bytes != res.BytesServed {
				p.addf("%s: recount %d jobs/%d bytes, result says %d/%d", where, o.completed, o.bytes, res.Completed, res.BytesServed)
			}
			if o.lateP > 0 {
				p.addf("%s: %d P-channel jobs completed after their deadline", where, o.lateP)
			}
			if isIOGuard(name) {
				var pending int64
				o.sys.Pending(func(j *task.Job) {
					if !o.preloaded[j.Task.ID] {
						pending++
					}
				})
				if o.residualDone+pending+res.Dropped != res.Released {
					p.addf("%s: residual completed %d + pending %d + dropped %d != released %d",
						where, o.residualDone, pending, res.Dropped, res.Released)
				}
				continue
			}
			if res.Completed+res.Unfinished+res.Dropped != res.Released {
				p.addf("%s: completed %d + unfinished %d + dropped %d != released %d",
					where, res.Completed, res.Unfinished, res.Dropped, res.Released)
			}
			if baselineReleased >= 0 && res.Released != baselineReleased {
				p.addf("%s: released %d, other baselines of the group released %d", where, res.Released, baselineReleased)
			}
			baselineReleased = res.Released
		}
	}
}

// checkDense reruns every system on g with Trial.Dense — the
// slot-by-slot reference loop — and requires the identical result.
func (w simWorkload) checkDense(g group, p *problems) {
	builders := experiments.Builders()
	for _, name := range w.systems {
		fast, err := system.Run(builders[name], w.trialOf(g))
		if err != nil {
			p.addf("%s dense oracle: %v", name, err)
			continue
		}
		tr := w.trialOf(g)
		tr.Dense = true
		dense, err := system.Run(builders[name], tr)
		if err != nil {
			p.addf("%s dense oracle: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(fast, dense) {
			p.addf("%s dense oracle: fast-forward result differs from dense at seed %d", name, g.seed)
		}
	}
}

// checkCaseStudy requires the timed passes' Fig. 7 tables to equal
// what experiments.CaseStudy renders for the same configuration. It
// fans the cells over two workers, a path apart from the timed one
// whose output is identical at any worker count.
func (w simWorkload) checkCaseStudy(seed int64, render string, p *problems) {
	points, err := experiments.CaseStudy(experiments.CaseStudyConfig{
		VMs:          w.vms,
		Trials:       fig7aTrials,
		HyperPeriods: fig7aHyperPeriods,
		Seed:         seed,
		Workers:      2,
	})
	if err != nil {
		p.addf("experiments.CaseStudy: %v", err)
		return
	}
	if want := experiments.RenderCaseStudy(points, w.vms); render != want {
		p.addf("Fig. 7 tables differ from experiments.CaseStudy:\n%s\nvs\n%s", render, want)
	}
}
