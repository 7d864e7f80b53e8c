package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"uucs/internal/cluster"
	"uucs/internal/core"
	"uucs/internal/server"
)

// The recovery workload: the journal's read side. Set-up lays down
// cluster state trees by driving the ingest path with full run records
// (monitor samples included, as the paper's clients upload them) until
// the streaming merge must spill at its default chunk size. The timed
// phase repeats cycles over the trees; one cycle is a cold restart of
// every node directory, a failover promote of every replica directory,
// and one cluster merge. The unit of work is one cold-path operation;
// the latency is one cycle's wall time.

const (
	recoveryFixtures     = 3
	recoveryRunsPerBatch = 4
	recoverySegmentBytes = 256 << 10
	// recoveryPayloadBytes of acked run records per tree: past twice the
	// merge's default 32 MB per-worker chunk.
	recoveryPayloadBytes = 72 << 20
	recoveryWorkers      = 2
)

// fixture is one laid-down cluster state tree and what was acked into it.
type fixture struct {
	root   string
	acked  []batchID
	byNode map[string][]batchID
	digest uint64
}

func buildFixture(e *env, name string, bodies [][]byte, ln *lane) (*fixture, error) {
	rig, err := setupIngest(e, name, bodies, recoveryRunsPerBatch, recoverySegmentBytes, ln)
	if err != nil {
		return nil, err
	}
	target := int64(recoveryPayloadBytes)
	if e.tiny {
		target = 256 << 10
	}
	errs := make([]error, len(rig.ups))
	var wg sync.WaitGroup
	for i, u := range rig.ups {
		wg.Add(1)
		l := e.setupLane()
		go func(i int, u *uploader) {
			defer wg.Done()
			for u.payload < target/int64(len(rig.ups)) {
				b, payload := u.nextBatch()
				if err := u.upload(b, payload, l); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, u)
	}
	wg.Wait()
	pins := rig.cl.Router().Pins()
	if err := rig.close(); err != nil {
		return nil, fmt.Errorf("laying down %s: cluster shutdown: %w", name, err)
	}
	f := &fixture{root: rig.root, byNode: map[string][]batchID{}}
	for i, u := range rig.ups {
		if errs[i] != nil || len(u.inDoubt) > 0 {
			return nil, fmt.Errorf("laying down %s: %v", name, errs[i])
		}
		for _, b := range u.acked {
			f.acked = append(f.acked, b)
			f.byNode[pins[b.client]] = append(f.byNode[pins[b.client]], b)
		}
	}
	return f, nil
}

// coldOp is one timed cold-path operation.
type coldOp struct {
	kind   string // "server.restart", "server.promote" or "cluster.merge"
	secs   float64
	mbps   float64 // replay throughput (restart and promote)
	allocs float64 // heap objects allocated per run restored or merged
	merge  cluster.MergeStats
}

// restore replays one state directory into a fresh server and checks
// the restored runs are exactly the batches acked into that partition.
func restore(e *env, kind, dir string, want []batchID, workers int, ln *lane) (coldOp, error) {
	srv := server.New(e.seed)
	srv.ReplayWorkers = workers
	a0 := mallocs()
	t0 := time.Now()
	s := ln.begin(kind, -1)
	err := srv.LoadState(dir)
	ln.end(s)
	op := coldOp{kind: kind, secs: time.Since(t0).Seconds()}
	if err != nil {
		return op, fmt.Errorf("%s %s: %w", kind, dir, err)
	}
	runs := srv.Results()
	op.allocs = (mallocs() - a0) / float64(max(len(runs), 1))
	st := srv.Stats()
	if st.ReplayNanos > 0 {
		op.mbps = float64(st.ReplayBytes) / float64(st.ReplayNanos) * 1e3
	}
	d := newDataset(recoveryRunsPerBatch)
	for _, r := range runs {
		d.addRun(r.TestcaseID)
	}
	if v := exactlyOnce(want, nil, d); !v.ok() {
		e.bad.addf("%s of %s: restored runs are not the acked batches: %v", kind, dir, v)
	}
	return op, srv.Close()
}

// mergeFixture merges the whole tree and checks the dataset, its digest
// and that the merge spilled.
func mergeFixture(e *env, f *fixture, workers int, ln *lane) (coldOp, error) {
	d := newDataset(recoveryRunsPerBatch)
	w := newRunLineWriter(d)
	a0 := mallocs()
	t0 := time.Now()
	s := ln.begin("cluster.merge", -1)
	st, err := cluster.MergeTreeOpts(w, f.root, cluster.MergeOptions{Workers: workers, TempDir: e.tmp})
	ln.end(s)
	op := coldOp{kind: "cluster.merge", secs: time.Since(t0).Seconds(), merge: st}
	if err != nil {
		return op, fmt.Errorf("merge %s: %w", f.root, err)
	}
	op.allocs = (mallocs() - a0) / float64(max(st.Runs, 1))
	if v := exactlyOnce(f.acked, nil, d); !v.ok() {
		e.bad.addf("merge of %s is not exactly the acked batches: %v", f.root, v)
	}
	if f.digest == 0 {
		f.digest = w.digest()
	} else if f.digest != w.digest() {
		e.bad.addf("merge of %s: digest %x differs from the first merge's %x", f.root, w.digest(), f.digest)
	}
	if !e.tiny && st.Spills == 0 {
		e.bad.addf("merge of %s never spilled; the tree is too small for the workload", f.root)
	}
	return op, nil
}

// replicaDirs maps each primary node id to the directory holding its
// replica, under root. A node that journaled nothing (no host landed on
// it) shipped nothing and has none.
func replicaDirs(root string) (map[string]string, error) {
	paths, err := filepath.Glob(filepath.Join(root, "node-*", "replica-*"))
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, p := range paths {
		out[strings.TrimPrefix(filepath.Base(p), "replica-")] = p
	}
	return out, nil
}

// cycle runs one restart of every node, one promote of every replica,
// and one merge over f.
func cycle(e *env, f *fixture, ln *lane) ([]coldOp, error) {
	reps, err := replicaDirs(f.root)
	if err != nil {
		return nil, err
	}
	for _, n := range nodeIDs {
		if _, ok := reps[n]; !ok && len(f.byNode[n]) > 0 {
			e.bad.addf("node %s acked %d batches into %s but has no replica", n, len(f.byNode[n]), f.root)
		}
	}
	var ops []coldOp
	for _, n := range nodeIDs {
		op, err := restore(e, "server.restart", filepath.Join(f.root, "node-"+n), f.byNode[n], recoveryWorkers, ln)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	for _, n := range nodeIDs {
		dir, ok := reps[n]
		if !ok {
			continue
		}
		op, err := restore(e, "server.promote", dir, f.byNode[n], recoveryWorkers, ln)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	op, err := mergeFixture(e, f, recoveryWorkers, ln)
	if err != nil {
		return nil, err
	}
	return append(ops, op), nil
}

func runRecovery(e *env) (*outcome, error) {
	runs, err := prebuiltRuns(e.seed)
	if err != nil {
		return nil, err
	}
	bodies, err := runBodies(runs, true)
	if err != nil {
		return nil, err
	}
	var (
		setups    []float64
		fixtures  []*fixture
		setupLane = e.setupLane()
	)
	for i := 0; i < recoveryFixtures; i++ {
		t0 := time.Now()
		f, err := buildFixture(e, fmt.Sprintf("recovery-%d", i), bodies, setupLane)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		fixtures = append(fixtures, f)
	}

	ln := e.tr.lane()
	var (
		cycles  []float64 // untraced cycle wall times, seconds
		cycOps  int       // operations in the untraced cycles
		ops     []coldOp
		tally   modeTally
		heap    = watchHeap(10 * time.Millisecond)
		before  = readProc()
		started = time.Now()
	)
	for i := 0; i == 0 || time.Since(started) < e.seconds; i++ {
		on := e.traced && i%2 == 1
		var l *lane
		if on {
			l = ln
		}
		mark := len(ln.spans)
		cy, err := cycle(e, fixtures[i%len(fixtures)], l)
		if err != nil {
			heap.finish()
			return nil, err
		}
		wall := 0.0
		for _, op := range cy {
			wall += op.secs
		}
		tally.add(on, wall)
		if on {
			tally.covered += ln.topLevelSeconds(mark)
		} else {
			cycles = append(cycles, wall)
			cycOps += len(cy)
		}
		ops = append(ops, cy...)
	}
	after := readProc()
	peak := heap.finish()

	out := &outcome{attempted: int64(len(ops)), metrics: map[string]float64{}}
	m := out.metrics
	if !e.traced {
		m["throughput_per_s"] = float64(cycOps) / sum(cycles)
		m["latency_p50_ms"] = quantile(cycles, 0.5) * 1e3
		m["latency_p90_ms"] = quantile(cycles, 0.9) * 1e3
		m["peak_heap_mb"] = peak
		m["setup_s"] = median(setups)
		return out, nil
	}

	fillProcess(m, before.to(after), float64(len(ops)), &tally)
	pick := func(kind string, val func(coldOp) float64) []float64 {
		var xs []float64
		for _, op := range ops {
			if op.kind == kind {
				xs = append(xs, val(op))
			}
		}
		return xs
	}
	secs := func(op coldOp) float64 { return op.secs * 1e3 }
	m["server.restart_ms"] = median(pick("server.restart", secs))
	m["server.promote_ms"] = median(pick("server.promote", secs))
	m["cluster.merge_ms"] = median(pick("cluster.merge", secs))
	replay := append(pick("server.restart", func(op coldOp) float64 { return op.mbps }),
		pick("server.promote", func(op coldOp) float64 { return op.mbps })...)
	m["server.replay_mb_per_s"] = median(replay)
	m["server.restore_allocs_per_run"] = median(pick("server.restart", func(op coldOp) float64 { return op.allocs }))
	m["cluster.merge_allocs_per_run"] = median(pick("cluster.merge", func(op coldOp) float64 { return op.allocs }))
	last := ops[len(ops)-1].merge
	m["cluster.merge_spills"] = float64(last.Spills)
	m["cluster.merge_dup_frac"] = float64(last.DupBatches) / float64(last.Batches+last.DupBatches)

	// Scaling: the first tree at 1 worker against 2.
	f := fixtures[0]
	var one, two float64
	for _, workers := range []int{1, 2} {
		t := 0.0
		for _, n := range nodeIDs {
			op, err := restore(e, "server.restart", filepath.Join(f.root, "node-"+n), f.byNode[n], workers, ln)
			if err != nil {
				return nil, err
			}
			t += op.secs
		}
		if workers == 1 {
			one = t
		} else {
			two = t
		}
	}
	m["server.replay_scaling_eff"] = one / (2 * two)
	m1, err := mergeFixture(e, f, 1, ln)
	if err != nil {
		return nil, err
	}
	m2, err := mergeFixture(e, f, 2, ln)
	if err != nil {
		return nil, err
	}
	m["cluster.merge_scaling_eff"] = m1.secs / (2 * m2.secs)
	return out, probeDecode(e, bodies, ln, m)
}

// probeDecode times core.DecodeRuns over batches assembled the way the
// fixture's uploads were.
func probeDecode(e *env, bodies [][]byte, ln *lane, m map[string]float64) error {
	u := &uploader{ids: []string{"probe"}, seqs: []uint64{0}, bodies: bodies, perBatch: recoveryRunsPerBatch}
	n := 2000
	if e.tiny {
		n = 20
	}
	payloads := make([]string, n)
	for i := range payloads {
		_, p := u.nextBatch()
		payloads[i] = string(p)
	}
	decoded := 0
	t0 := time.Now()
	for _, p := range payloads {
		s := ln.begin("core.decode", -1)
		runs, err := core.DecodeRuns(strings.NewReader(p))
		ln.end(s)
		if err != nil {
			return err
		}
		decoded += len(runs)
	}
	m["core.decode_us_per_run"] = time.Since(t0).Seconds() * 1e6 / float64(decoded)
	return nil
}
