package main

import (
	"fmt"
	"time"

	"uucs/internal/cluster"
)

// The ingest workload: a closed loop of 2 uploader connections into the
// router of a 3-node ring-replicated cluster. Each connection carries
// the uploads of several registered hosts in turn; every batch holds
// distinct run records naming its (client id, seq). The unit of work
// is one acked batch; the latency is send-to-ack.

const (
	ingestConns        = 2
	ingestHostsPerConn = 8
	ingestRunsPerBatch = 2
	// ingestSegmentBytes makes the nodes rotate journal segments.
	ingestSegmentBytes = 1 << 20
	// ingestHeapAt acked batches, a fifth of a typical 20 s phase, mark
	// the heap reading.
	ingestHeapAt = 20000
	// loopSetups is how many times the closed-loop workloads set up;
	// setup_s is the median.
	loopSetups = 11
)

// ingestRig is one set-up cluster with its connected uploaders.
type ingestRig struct {
	root string
	cl   *cluster.Cluster
	ups  []*uploader
}

func (r *ingestRig) close() error {
	for _, u := range r.ups {
		u.close()
	}
	return r.cl.Close()
}

func setupIngest(e *env, name string, bodies [][]byte, perBatch int, segmentBytes int64, ln *lane) (*ingestRig, error) {
	root, err := mkdir(e.tmp, name)
	if err != nil {
		return nil, err
	}
	cl, err := startCluster(root, e.seed, nil, segmentBytes, ln)
	if err != nil {
		return nil, err
	}
	r := &ingestRig{root: root, cl: cl}
	for c := 0; c < ingestConns; c++ {
		u, err := dialUploader(cl.Addr(), e.seed, c, ingestHostsPerConn, bodies, perBatch, ln)
		if err != nil {
			r.close()
			return nil, err
		}
		r.ups = append(r.ups, u)
	}
	return r, nil
}

func runIngest(e *env) (*outcome, error) {
	runs, err := prebuiltRuns(e.seed)
	if err != nil {
		return nil, err
	}
	bodies, err := runBodies(runs, false)
	if err != nil {
		return nil, err
	}

	// Set-up, several times: start the cluster and register every host.
	// The last rig is the one measured.
	var (
		setups    []float64
		rig       *ingestRig
		setupLane = e.setupLane()
	)
	for i := 0; i < loopSetups; i++ {
		if rig != nil {
			_ = rig.close() // an earlier set-up, never read
		}
		t0 := time.Now()
		rig, err = setupIngest(e, fmt.Sprintf("ingest-%d", i), bodies, ingestRunsPerBatch, ingestSegmentBytes, setupLane)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	heapAt := int64(ingestHeapAt)
	if e.tiny {
		heapAt = 20
	}
	phase, err := runLoops(e, len(rig.ups), heapAt, func(i int, ln *lane, c *closedLoop) laneResult {
		return driveUploads(e, rig.ups[i], ln, c)
	})
	for _, u := range rig.ups {
		u.close()
	}
	readings := readCluster(rig.cl)
	if cerr := rig.cl.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("cluster shutdown: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: int64(len(phase.acked) + len(phase.inDoubt)),
		failed:    int64(len(phase.inDoubt)),
		metrics:   map[string]float64{},
	}

	// Exactly-once check over the merged cluster tree, untimed.
	d, err := mergeDataset(rig.root, e.tmp, ingestRunsPerBatch)
	if err != nil {
		return nil, fmt.Errorf("verification merge: %w", err)
	}
	if v := exactlyOnce(phase.acked, phase.inDoubt, d); !v.ok() {
		e.bad.addf("ingest dataset is not exactly the acked batches: %v", v)
	}

	m := out.metrics
	phase.fill(e, m, setups, readings)
	if e.traced {
		m["protocol.send_us"] = median(e.tr.durations("protocol.send")) * 1e6
		waits := e.tr.durations("protocol.wait")
		m["protocol.wait_us.p50"] = quantile(waits, 0.5) * 1e6
		m["protocol.wait_us.p99"] = quantile(waits, 0.99) * 1e6
		m["server.journal_bytes_per_run"] = float64(primaryJournalBytes(rig.root)) / float64(d.runs)
	}
	return out, nil
}

// driveUploads is one closed loop: upload batches back to back while
// the phase lasts. In a traced run, operations starting in a traced
// slice record spans and the rest measure the untraced rate beside
// them.
func driveUploads(e *env, u *uploader, ln *lane, c *closedLoop) laneResult {
	var r laneResult
	r.lats = make([]float64, 0, 1<<16)
	r.first = time.Now()
	opStart := r.first
	for c.more(opStart) {
		on := e.traced && c.clock.tracedAt(opStart)
		var l *lane
		if on {
			l = ln
		}
		mark := len(ln.spans)
		b, payload := u.nextBatch()
		t0 := time.Now()
		if err := u.upload(b, payload, l); err != nil {
			r.err = err
			break
		}
		now := time.Now()
		if !on {
			r.lats = append(r.lats, now.Sub(t0).Seconds())
		}
		r.tally.add(on, now.Sub(opStart).Seconds())
		if on {
			r.tally.covered += ln.topLevelSeconds(mark)
		}
		c.acked()
		opStart = time.Now()
	}
	r.last = opStart
	r.acked, r.inDoubt = u.acked, u.inDoubt
	return r
}
