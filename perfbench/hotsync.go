package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"uucs/internal/client"
	"uucs/internal/cluster"
	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/stats"
	"uucs/internal/testcase"
)

// The hotsync workload: 2 closed-loop drivers, each running one host
// of the real client stack (client.Client over an on-disk
// client.Store) against the router of the 3-node cluster, whose nodes
// hold a generated pool of testcases. Each cycle appends a fixed number
// of prebuilt runs to the store and hot-syncs: download a growing
// sample of testcases, upload the sealed batch. A host retires after a
// fixed number of syncs and a freshly registered host replaces it, so
// download sizes stay stationary. The unit of work is one HotSync call.

const (
	syncDrivers     = 2
	syncRunsPerSync = 4
	syncsPerHost    = 4
	syncPoolSize    = 400
	// syncHeapAt completed syncs, a fifth of a typical 20 s phase, mark
	// the heap reading.
	syncHeapAt = 600
)

// syncHost is one registered client and its store.
type syncHost struct {
	c     *client.Client
	dir   string
	syncs int
}

func newSyncHost(e *env, root, addr string, driver, n int, ln *lane) (*syncHost, error) {
	dir := filepath.Join(root, fmt.Sprintf("host-%d-%d", driver, n))
	snap := protocol.Snapshot{
		Hostname: fmt.Sprintf("sync-%x-%d-%d", e.seed, driver, n), OS: "winxp",
		CPUGHz: 2, MemMB: 512, DiskGB: 80,
	}
	s := ln.begin("client.open", -1)
	store, err := client.OpenStore(dir)
	var c *client.Client
	if err == nil {
		c, err = client.New(store, snap, nil, e.seed^uint64(driver<<32|n))
	}
	ln.end(s)
	if err != nil {
		return nil, err
	}
	c.Timeout = 30 * time.Second
	s = ln.begin("client.register", -1)
	err = c.Register(addr)
	ln.end(s)
	if err != nil {
		return nil, fmt.Errorf("register host %d-%d: %w", driver, n, err)
	}
	return &syncHost{c: c, dir: dir}, nil
}

// syncRig is one set-up cluster with each driver's first host, and
// the testcase pool its nodes serve.
type syncRig struct {
	root  string
	cl    *cluster.Cluster
	pool  []*testcase.Testcase
	hosts []*syncHost
}

func setupHotsync(e *env, name string, ln *lane) (*syncRig, error) {
	root, err := mkdir(e.tmp, name)
	if err != nil {
		return nil, err
	}
	cfg := testcase.DefaultGeneratorConfig()
	cfg.Count = syncPoolSize
	if e.tiny {
		cfg.Count = 40
	}
	s := ln.begin("testcase.generate", -1)
	pool, err := testcase.Generate("tc", cfg, stats.NewStream(e.seed))
	ln.end(s)
	if err != nil {
		return nil, err
	}
	cl, err := startCluster(filepath.Join(root, "cluster"), e.seed, pool, ingestSegmentBytes, ln)
	if err != nil {
		return nil, err
	}
	r := &syncRig{root: root, cl: cl, pool: pool}
	for d := 0; d < syncDrivers; d++ {
		h, err := newSyncHost(e, root, cl.Addr(), d, 0, ln)
		if err != nil {
			cl.Close()
			return nil, err
		}
		r.hosts = append(r.hosts, h)
	}
	return r, nil
}

func runHotsync(e *env) (*outcome, error) {
	runs, err := prebuiltRuns(e.seed)
	if err != nil {
		return nil, err
	}
	setupLane := e.setupLane()
	var (
		setups []float64
		rig    *syncRig
	)
	for i := 0; i < loopSetups; i++ {
		if rig != nil {
			_ = rig.cl.Close() // an earlier set-up, never read
		}
		t0 := time.Now()
		rig, err = setupHotsync(e, fmt.Sprintf("hotsync-%d", i), setupLane)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	heapAt := int64(syncHeapAt)
	if e.tiny {
		heapAt = 4
	}
	newTCs := make([]float64, syncDrivers)
	phase, err := runLoops(e, syncDrivers, heapAt, func(d int, ln *lane, c *closedLoop) laneResult {
		return driveSyncs(e, rig, d, runs, ln, c, &newTCs[d])
	})
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

	d, err := mergeDataset(filepath.Join(rig.root, "cluster"), e.tmp, syncRunsPerSync)
	if err != nil {
		return nil, fmt.Errorf("verification merge: %w", err)
	}
	if v := exactlyOnce(phase.acked, phase.inDoubt, d); !v.ok() {
		e.bad.addf("hotsync dataset is not exactly the acked batches: %v", v)
	}

	m := out.metrics
	phase.fill(e, m, setups, readings)
	if !e.traced {
		return out, nil
	}
	m["client.register_ms"] = median(e.tr.durations("client.register")) * 1e3
	m["client.append_us_per_run"] = median(e.tr.durations("client.append")) * 1e6
	m["client.new_testcases_per_sync"] = sum(newTCs) / float64(len(phase.acked))
	m["testcase.generate_ms"] = median(e.tr.durations("testcase.generate")) * 1e3
	return out, probeTestcaseCodec(e, rig.pool, setupLane, m)
}

// driveSyncs is one hot-sync driver's closed loop. It adds the new
// testcases every sync downloaded to newTCs.
func driveSyncs(e *env, rig *syncRig, d int, runs []*core.Run, ln *lane, c *closedLoop, newTCs *float64) laneResult {
	var r laneResult
	r.first = time.Now()
	h := rig.hosts[d]
	hostN := 0
	opStart := r.first
	for c.more(opStart) {
		on := e.traced && c.clock.tracedAt(opStart)
		var l *lane
		if on {
			l = ln
		}
		mark := len(ln.spans)
		s := l.begin("client.next_seq", -1)
		seq, err := h.c.Store.NextSeq()
		l.end(s)
		if err != nil {
			r.err = err
			break
		}
		b := batchID{client: h.c.ID(), seq: seq}
		for k := 0; k < syncRunsPerSync; k++ {
			run := *runs[(int(seq)*syncRunsPerSync+k+d)%len(runs)]
			run.TestcaseID = runName(b, k)
			s := l.begin("client.append", -1)
			err = h.c.Store.AppendRun(&run)
			l.end(s)
			if err != nil {
				break
			}
		}
		if err != nil {
			r.err = err
			break
		}
		t0 := time.Now()
		s = l.begin("client.hotsync", -1)
		st, err := h.c.HotSync(rig.cl.Addr())
		l.end(s)
		now := time.Now()
		if err != nil || st.UploadedRuns != syncRunsPerSync {
			r.inDoubt = append(r.inDoubt, b)
			if err == nil {
				err = fmt.Errorf("hot sync %v uploaded %d runs, want %d", b, st.UploadedRuns, syncRunsPerSync)
			}
			r.err = err
			break
		}
		r.acked = append(r.acked, b)
		*newTCs += float64(st.NewTestcases)
		if !on {
			r.lats = append(r.lats, now.Sub(t0).Seconds())
		}
		h.syncs++
		if h.syncs == syncsPerHost {
			if err := os.RemoveAll(h.dir); err != nil {
				r.err = err
				break
			}
			hostN++
			if h, err = newSyncHost(e, rig.root, rig.cl.Addr(), d, hostN, l); err != nil {
				r.err = err
				break
			}
		}
		now = time.Now()
		r.tally.add(on, now.Sub(opStart).Seconds())
		if on {
			r.tally.covered += ln.topLevelSeconds(mark)
		}
		c.acked()
		opStart = time.Now()
	}
	r.last = opStart
	return r
}

// probeTestcaseCodec times the testcase codec on the pool from outside:
// encode the whole pool, then decode it, several times.
func probeTestcaseCodec(e *env, pool []*testcase.Testcase, ln *lane, m map[string]float64) error {
	for i := 0; i < 5; i++ {
		var b bytes.Buffer
		s := ln.begin("testcase.encode_all", -1)
		err := testcase.EncodeAll(&b, pool)
		ln.end(s)
		if err != nil {
			return err
		}
		s = ln.begin("testcase.decode_all", -1)
		got, err := testcase.DecodeAll(&b)
		ln.end(s)
		if err != nil {
			return err
		}
		if len(got) != len(pool) {
			e.bad.addf("testcase codec round trip returned %d of %d testcases", len(got), len(pool))
		}
	}
	m["testcase.encode_us_per_tc"] = median(e.tr.durations("testcase.encode_all")) * 1e6 / float64(len(pool))
	m["testcase.decode_us_per_tc"] = median(e.tr.durations("testcase.decode_all")) * 1e6 / float64(len(pool))
	return nil
}
