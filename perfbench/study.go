package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"uucs/internal/apps"
	"uucs/internal/comfort"
	"uucs/internal/core"
	"uucs/internal/hostpop"
	"uucs/internal/internetstudy"
	"uucs/internal/study"
	"uucs/internal/testcase"
)

// The study workload: batch passes of both studies. One pass is the
// controlled study (study.Run over a synthetic population, then every
// figure table over its analysis.DB) followed by the Internet study
// (internetstudy.RunStreaming over a Heien host population with crash
// churn), both at a fixed 2 workers. The unit of work is one simulated
// run; the latency is one pass's wall time.

const studyWorkers = 2

type studySize struct {
	users, hosts, runsPerHost int
}

func (e *env) studySize() studySize {
	if e.tiny {
		return studySize{users: 3, hosts: 40, runsPerHost: 4}
	}
	return studySize{users: 100, hosts: 1500, runsPerHost: 12}
}

// studyPass is what one pass produced and how long its phases took.
type studyPass struct {
	controlled, tables, fleet time.Duration
	runs                      int
	digest                    uint64
	fleetAcct                 [4]uint64
	fleetAllocs               float64
}

func (e *env) studyConfigs(sz studySize, workers int) (study.Config, internetstudy.StreamConfig) {
	cfg := study.DefaultConfig()
	cfg.Users = sz.users
	cfg.Seed = e.seed
	cfg.Workers = workers
	sc := internetstudy.DefaultStreamConfig()
	sc.Hosts = sz.hosts
	sc.RunsPerHost = sz.runsPerHost
	sc.Seed = e.seed
	sc.Churn = hostpop.DefaultChurn()
	sc.Workers = workers
	// The default block (2048 hosts) would put the whole fleet in one
	// scheduling unit and leave the second worker idle.
	sc.BlockSize = 250
	return cfg, sc
}

// runStudyPass runs one pass, recording spans on ln when non-nil.
func runStudyPass(cfg study.Config, sc internetstudy.StreamConfig, ln *lane) (studyPass, error) {
	var p studyPass
	t0 := time.Now()
	s := ln.begin("study.run", -1)
	res, err := study.Run(cfg)
	ln.end(s)
	if err != nil {
		return p, err
	}
	t1 := time.Now()
	s = ln.begin("analysis.tables", -1)
	tables := res.RenderAll()
	ln.end(s)
	t2 := time.Now()
	a0 := mallocs()
	s = ln.begin("internetstudy.run", -1)
	fleet, err := internetstudy.RunStreaming(sc)
	ln.end(s)
	if err != nil {
		return p, err
	}
	t3 := time.Now()
	p.fleetAllocs = mallocs() - a0
	p.controlled, p.tables, p.fleet = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)

	// Checks, untimed.
	if want := cfg.Users * 32; len(res.Runs) != want {
		return p, fmt.Errorf("controlled study produced %d runs, want users x 32 = %d", len(res.Runs), want)
	}
	if len(tables) == 0 {
		return p, fmt.Errorf("controlled study rendered no figure tables")
	}
	if err := fleet.Agg.CheckAccounting(uint64(sc.Hosts * sc.RunsPerHost)); err != nil {
		return p, err
	}
	h := fnv.New64a()
	if err := core.EncodeRuns(h, res.Runs, true); err != nil {
		return p, err
	}
	p.digest = h.Sum64()
	ag := fleet.Agg
	p.fleetAcct = [4]uint64{ag.Attempted, ag.Folded, ag.Blank, ag.Crashed}
	p.runs = len(res.Runs) + int(ag.Attempted)
	return p, nil
}

func (p studyPass) wall() time.Duration { return p.controlled + p.tables + p.fleet }

func runStudy(e *env) (*outcome, error) {
	sz := e.studySize()
	setupLane := e.setupLane()

	// Set-up, three times: the controlled suite, the participant and
	// host populations, and a full-size warm-up pass that fills the
	// simulator's memo tables before timing.
	cfg, sc := e.studyConfigs(sz, studyWorkers)
	var setups []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		s := setupLane.begin("testcase.suite", -1)
		if _, err := testcase.ControlledSuiteAll(); err != nil {
			return nil, err
		}
		setupLane.end(s)
		s = setupLane.begin("comfort.population", -1)
		if _, err := comfort.SamplePopulation(sz.users, comfort.DefaultPopulation(), e.seed); err != nil {
			return nil, err
		}
		setupLane.end(s)
		s = setupLane.begin("hostpop.generate", -1)
		if _, err := hostpop.Generate(sz.hosts, hostpop.Heien(), e.seed, studyWorkers); err != nil {
			return nil, err
		}
		setupLane.end(s)
		if _, err := runStudyPass(cfg, sc, setupLane); err != nil {
			return nil, fmt.Errorf("warm-up pass: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var (
		passes  []studyPass
		traced  []bool
		tally   modeTally
		first   *studyPass
		heap    = watchHeap(10 * time.Millisecond)
		before  = readProc()
		started = time.Now()
		ln      = e.tr.lane()
	)
	for i := 0; i == 0 || time.Since(started) < e.seconds; i++ {
		on := e.traced && i%2 == 1
		var l *lane
		if on {
			l = ln
		}
		mark := len(ln.spans)
		p, err := runStudyPass(cfg, sc, l)
		if err != nil {
			heap.finish()
			return nil, err
		}
		if first == nil {
			first = &p
		} else if p.digest != first.digest || p.fleetAcct != first.fleetAcct {
			e.bad.addf("pass %d (traced=%v) differs from pass 0: run digest %x vs %x, fleet accounting %v vs %v",
				i, on, p.digest, first.digest, p.fleetAcct, first.fleetAcct)
		}
		tally.add(on, p.wall().Seconds())
		if on {
			tally.covered += ln.topLevelSeconds(mark)
		}
		passes = append(passes, p)
		traced = append(traced, on)
	}
	after := readProc()
	peak := heap.finish()

	var walls []float64 // untraced pass wall times, ms
	for i, p := range passes {
		if !traced[i] {
			walls = append(walls, p.wall().Seconds()*1e3)
		}
	}
	out := &outcome{attempted: int64(len(passes) * first.runs), metrics: map[string]float64{}}
	if !e.traced {
		out.metrics["throughput_per_s"] = float64(len(walls)*first.runs) / (sum(walls) / 1e3)
		out.metrics["latency_p50_ms"] = quantile(walls, 0.5)
		out.metrics["latency_p90_ms"] = quantile(walls, 0.9)
		out.metrics["peak_heap_mb"] = peak
		out.metrics["setup_s"] = median(setups)
		return out, nil
	}

	// Traced extras: engine probes and 1-worker scaling passes.
	m := out.metrics
	fillProcess(m, before.to(after), float64(len(passes)*first.runs), &tally)
	m["testcase.suite_ms"] = median(e.tr.durations("testcase.suite")) * 1e3
	m["comfort.population_ms"] = median(e.tr.durations("comfort.population")) * 1e3
	m["hostpop.generate_ms"] = median(e.tr.durations("hostpop.generate")) * 1e3
	m["analysis.tables_ms"] = median(e.tr.durations("analysis.tables")) * 1e3

	var ctrl, fleet, fleetAllocs []float64
	for i, p := range passes {
		if !traced[i] {
			ctrl = append(ctrl, (p.controlled + p.tables).Seconds())
			fleet = append(fleet, p.fleet.Seconds())
		}
		fleetAllocs = append(fleetAllocs, p.fleetAllocs)
	}
	ctrlRuns, fleetRuns := float64(sz.users*32), float64(first.fleetAcct[0])
	m["study.runs_per_s"] = ctrlRuns / median(ctrl)
	m["internetstudy.runs_per_s"] = fleetRuns / median(fleet)
	m["internetstudy.allocs_per_run"] = median(fleetAllocs) / fleetRuns

	// Scaling: 1-worker and 2-worker passes in adjacent pairs, so both
	// sides see the same machine.
	cfg1, sc1 := e.studyConfigs(sz, 1)
	var ctrl1, fleet1, ctrl2, fleet2 []float64
	for r := 0; r < 2; r++ {
		for _, workers := range []int{1, studyWorkers} {
			c, f := cfg1, sc1
			if workers != 1 {
				c, f = cfg, sc
			}
			p, err := runStudyPass(c, f, ln)
			if err != nil {
				return nil, err
			}
			if p.digest != first.digest || p.fleetAcct != first.fleetAcct {
				e.bad.addf("%d-worker pass differs from the timed passes: run digest %x vs %x", workers, p.digest, first.digest)
			}
			if workers == 1 {
				ctrl1, fleet1 = append(ctrl1, (p.controlled+p.tables).Seconds()), append(fleet1, p.fleet.Seconds())
			} else {
				ctrl2, fleet2 = append(ctrl2, (p.controlled+p.tables).Seconds()), append(fleet2, p.fleet.Seconds())
			}
		}
	}
	m["study.scaling_eff"] = median(ctrl1) / (studyWorkers * median(ctrl2))
	m["internetstudy.scaling_eff"] = median(fleet1) / (studyWorkers * median(fleet2))

	if err := probeEngine(e, ln, m); err != nil {
		return nil, err
	}
	return out, nil
}

// probeEngine times Engine.ExecuteScratch on every controlled-suite
// testcase of each task with one warm scratch, and counts its
// allocations per run.
func probeEngine(e *env, ln *lane, m map[string]float64) error {
	suites, err := testcase.ControlledSuiteAll()
	if err != nil {
		return err
	}
	users, err := comfort.SamplePopulation(4, comfort.DefaultPopulation(), e.seed)
	if err != nil {
		return err
	}
	eng := core.NewEngine()
	scratch := core.NewScratch()
	reps := 25
	if e.tiny {
		reps = 2
	}
	var allocs, execs float64
	for _, task := range testcase.Tasks() {
		app, err := apps.New(task)
		if err != nil {
			return err
		}
		name := "core.execute." + string(task)
		var a0 float64
		for r := 0; r < reps; r++ {
			if r == 1 { // the first round warms the scratch
				a0 = mallocs()
			}
			for i, tc := range suites[task] {
				s := ln.begin(name, -1)
				_, err := eng.ExecuteScratch(scratch, tc, app, users[(r+i)%len(users)], e.seed+uint64(r*64+i))
				ln.end(s)
				if err != nil {
					return err
				}
			}
		}
		allocs += mallocs() - a0
		execs += float64((reps - 1) * len(suites[task]))
		m["core.execute_us."+string(task)] = median(e.tr.durations(name)) * 1e6
	}
	if execs > 0 {
		m["core.allocs_per_run"] = allocs / execs
	}
	return nil
}
