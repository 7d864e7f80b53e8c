// Command perfbench is the repository's benchmark: four workloads that
// drive the program's public packages in this process — the simulation
// studies, closed-loop ingest through a 3-node cluster, hot syncs by the
// real client stack, and the journal's cold paths — check each
// workload's output, and print one JSON result line.
//
//	perfbench --workload <study|ingest|hotsync|recovery> --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run that records a span around every call into a layer,
// writes the spans out when the run ends, and prints the per-layer
// metrics. See README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of untraced runs. Every workload reports
// all of them, each with the workload's own unit of work (README.md).
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of traced runs. A workload that never calls
// a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	// study
	{"testcase.suite_ms", "ms"},
	{"comfort.population_ms", "ms"},
	{"core.execute_us.word", "us"},
	{"core.execute_us.powerpoint", "us"},
	{"core.execute_us.ie", "us"},
	{"core.execute_us.quake", "us"},
	{"core.allocs_per_run", "count"},
	{"analysis.tables_ms", "ms"},
	{"hostpop.generate_ms", "ms"},
	{"internetstudy.allocs_per_run", "count"},
	{"study.runs_per_s", "1/s"},
	{"internetstudy.runs_per_s", "1/s"},
	{"study.scaling_eff", "ratio"},
	{"internetstudy.scaling_eff", "ratio"},
	// ingest
	{"protocol.send_us", "us"},
	{"protocol.wait_us.p50", "us"},
	{"protocol.wait_us.p99", "us"},
	{"server.ops_per_fsync", "count"},
	{"server.fsync_p50_us", "us"},
	{"server.fsync_p99_us", "us"},
	{"server.journal_queue_max", "count"},
	{"server.shard_wait_frac", "ratio"},
	{"server.journal_bytes_per_run", "B"},
	{"cluster.forward_errors", "count"},
	{"cluster.replica_errors", "count"},
	// hotsync
	{"client.register_ms", "ms"},
	{"client.append_us_per_run", "us"},
	{"client.new_testcases_per_sync", "count"},
	{"testcase.generate_ms", "ms"},
	{"testcase.encode_us_per_tc", "us"},
	{"testcase.decode_us_per_tc", "us"},
	// recovery
	{"server.restart_ms", "ms"},
	{"server.promote_ms", "ms"},
	{"cluster.merge_ms", "ms"},
	{"server.replay_mb_per_s", "MB/s"},
	{"server.restore_allocs_per_run", "count"},
	{"core.decode_us_per_run", "us"},
	{"server.replay_scaling_eff", "ratio"},
	{"cluster.merge_scaling_eff", "ratio"},
	{"cluster.merge_dup_frac", "ratio"},
	{"cluster.merge_allocs_per_run", "count"},
	{"cluster.merge_spills", "count"},
	// every workload
	{"process.cpu_us_per_op", "us"},
	{"process.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// env is what a workload runs with.
type env struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	tiny    bool // smoke-test sizes
	tmp     string
	tr      *tracer
	log     io.Writer
	bad     *problems
}

// setupLane is a new lane in a traced run and nil (recording nothing)
// in an untraced one.
func (e *env) setupLane() *lane {
	if !e.traced {
		return nil
	}
	return e.tr.lane()
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
}

type workload struct {
	name string
	run  func(*env) (*outcome, error)
}

var workloads = []workload{
	{"study", runStudy},
	{"ingest", runIngest},
	{"hotsync", runHotsync},
	{"recovery", runRecovery},
}

// deadline bounds one workload end to end: setup, timed phase and
// checks. A workload that overruns fails the run instead of hanging.
const deadline = 170 * time.Second

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: study, ingest, hotsync or recovery")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 makes a traced run printing per-layer metrics")
	size := fs.String("size", "full", "input size: full, or tiny for smoke tests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q (want study, ingest, hotsync or recovery)", *name)
	case *seconds <= 0:
		return fmt.Errorf("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("--trace must be 0 or 1")
	case *size != "full" && *size != "tiny":
		return fmt.Errorf("--size must be full or tiny")
	}

	tmp, err := os.MkdirTemp("", "perfbench-"+w.name+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		tiny:    *size == "tiny",
		tmp:     tmp,
		tr:      newTracer(),
		log:     stderr,
		bad:     &problems{},
	}
	fp := takeFingerprint(tmp, w.name, e.seed, e.traced)
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	type done struct {
		out *outcome
		err error
	}
	ch := make(chan done, 1)
	go func() {
		out, err := w.run(e)
		ch <- done{out, err}
	}()
	// An interrupted or overrunning run returns at once, so the deferred
	// clean-up removes the temp directory before the process exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	var d done
	select {
	case d = <-ch:
	case <-time.After(deadline):
		return fmt.Errorf("workload %s: no result within %v", w.name, deadline)
	case s := <-sig:
		return fmt.Errorf("workload %s: %v", w.name, s)
	}
	if d.err != nil {
		return fmt.Errorf("workload %s: %w", w.name, d.err)
	}

	defs := endToEnd
	if e.traced {
		defs = perLayer
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, e.seed))
		if err := e.tr.write(path, fp); err != nil {
			return fmt.Errorf("workload %s: write spans: %w", w.name, err)
		}
	}
	res := result{
		Correct:   len(e.bad.list) == 0,
		Attempted: d.out.attempted,
		Failed:    d.out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, def := range defs {
		v, ok := d.out.metrics[def.name]
		if !e.traced && (!ok || v <= 0) {
			return fmt.Errorf("workload %s: end-to-end metric %s not measured", w.name, def.name)
		}
		res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s: attempted no operations", w.name)
	}
	for _, p := range e.bad.list {
		fmt.Fprintf(stderr, "perfbench: workload %s: INCORRECT: %s\n", w.name, p)
	}
	printSummary(stdout, w.name, defs, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// printSummary writes one human-readable line per metric.
func printSummary(w io.Writer, name string, defs []metricDef, res result) {
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
