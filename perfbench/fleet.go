package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"uucs/internal/apps"
	"uucs/internal/cluster"
	"uucs/internal/comfort"
	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/telemetry"
	"uucs/internal/testcase"
)

// Shared pieces of the ingest-side workloads: the 3-node cluster, the
// prebuilt run records the load uploads, and the uploader connection.

var nodeIDs = []string{"n1", "n2", "n3"}

// startCluster starts a 3-node ring-replicated cluster over loopback
// TCP with real fsync and the server's default group commit.
func startCluster(root string, seed uint64, tcs []*testcase.Testcase, segmentBytes int64, ln *lane) (*cluster.Cluster, error) {
	defer ln.end(ln.begin("cluster.start", -1))
	return cluster.Start(cluster.Config{
		Nodes: nodeIDs, Seed: seed, StateRoot: root,
		Transport:           cluster.TCPTransport{},
		Testcases:           tcs,
		JournalSegmentBytes: segmentBytes,
	})
}

// prebuiltRuns executes the controlled suite (8 testcases of each of
// the 4 tasks) for one user sampled from seed: 32 real run records.
func prebuiltRuns(seed uint64) ([]*core.Run, error) {
	users, err := comfort.SamplePopulation(1, comfort.DefaultPopulation(), seed)
	if err != nil {
		return nil, err
	}
	suites, err := testcase.ControlledSuiteAll()
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine()
	var runs []*core.Run
	for _, task := range testcase.Tasks() {
		app, err := apps.New(task)
		if err != nil {
			return nil, err
		}
		for i, tc := range suites[task] {
			r, err := eng.Execute(tc, app, users[0], seed^uint64(len(runs)*7919+i))
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
	}
	return runs, nil
}

// runBodies encodes each run and drops its leading "run <id>" line, so
// a batch can be assembled by writing fresh identity lines in front.
func runBodies(runs []*core.Run, withLoad bool) ([][]byte, error) {
	out := make([][]byte, len(runs))
	for i, r := range runs {
		var b bytes.Buffer
		if err := core.EncodeRuns(&b, []*core.Run{r}, withLoad); err != nil {
			return nil, err
		}
		enc := b.Bytes()
		nl := bytes.IndexByte(enc, '\n')
		out[i] = enc[nl+1:]
	}
	return out, nil
}

// uploader is one persistent v3 connection to the router carrying the
// uploads of several registered hosts in turn — one closed loop: the
// next batch leaves only when the previous one is acked.
type uploader struct {
	conn     *protocol.Conn
	ids      []string
	seqs     []uint64
	next     int
	bodies   [][]byte
	perBatch int
	buf      []byte

	acked   []batchID
	inDoubt []batchID
	payload int64 // payload bytes acked
}

// dialUploader connects to addr and registers hosts identities whose
// snapshots derive from (seed, slot).
func dialUploader(addr string, seed uint64, slot, hosts int, bodies [][]byte, perBatch int, ln *lane) (*uploader, error) {
	nc, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	conn := protocol.NewConn(nc)
	conn.SetTimeout(30 * time.Second)
	conn.SetVersion(protocol.V3)
	u := &uploader{conn: conn, bodies: bodies, perBatch: perBatch}
	for h := 0; h < hosts; h++ {
		snap := protocol.Snapshot{
			Hostname: fmt.Sprintf("bench-%x-%d-%d", seed, slot, h), OS: "winxp",
			CPUGHz: 2, MemMB: 512, DiskGB: 80,
		}
		s := ln.begin("protocol.register", -1)
		err := conn.Send(protocol.Message{
			Type: protocol.TypeRegister, Ver: protocol.V3, Snapshot: &snap,
			Nonce: fmt.Sprintf("bench-nonce-%x-%d-%d", seed, slot, h),
		})
		var reg protocol.Message
		if err == nil {
			reg, err = conn.Recv()
		}
		ln.end(s)
		if err == nil {
			err = protocol.AsError(reg)
		}
		if err == nil && (reg.Type != protocol.TypeRegistered || reg.ClientID == "") {
			err = fmt.Errorf("unexpected registration reply %q", reg.Type)
		}
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("register host %d: %w", h, err)
		}
		u.ids = append(u.ids, reg.ClientID)
		u.seqs = append(u.seqs, 0)
	}
	return u, nil
}

// nextBatch assembles the next host's next batch: perBatch prebuilt
// run bodies, each behind a "run" line naming (client id, seq, slot).
func (u *uploader) nextBatch() (batchID, []byte) {
	h := u.next
	u.next = (u.next + 1) % len(u.ids)
	u.seqs[h]++
	b := batchID{client: u.ids[h], seq: u.seqs[h]}
	buf := u.buf[:0]
	for k := 0; k < u.perBatch; k++ {
		buf = append(buf, "run "...)
		buf = append(buf, b.client...)
		buf = append(buf, '.')
		buf = strconv.AppendUint(buf, b.seq, 10)
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(k), 10)
		buf = append(buf, '\n')
		buf = append(buf, u.bodies[(int(b.seq)*u.perBatch+k+h)%len(u.bodies)]...)
	}
	u.buf = buf
	return b, buf
}

// upload sends one batch and waits for its ack, recording spans on ln
// (nil records nothing). An error leaves the batch in doubt.
func (u *uploader) upload(b batchID, payload []byte, ln *lane) error {
	s := ln.begin("protocol.send", -1)
	err := u.conn.SendPayload(protocol.Message{Type: protocol.TypeResults, ClientID: b.client, Seq: b.seq}, payload)
	ln.end(s)
	if err != nil {
		u.inDoubt = append(u.inDoubt, b)
		return err
	}
	s = ln.begin("protocol.wait", -1)
	f, err := u.conn.RecvFrame()
	ln.end(s)
	if err == nil {
		switch {
		case f.Type == protocol.TypeError:
			err = fmt.Errorf("upload %v rejected: %s", b, f.Err)
		case f.Type != protocol.TypeAck || f.Seq != b.seq:
			err = fmt.Errorf("upload %v: reply %q seq %d", b, f.Type, f.Seq)
		case f.Dup:
			err = fmt.Errorf("upload %v: first send acked as duplicate", b)
		}
	}
	if err != nil {
		u.inDoubt = append(u.inDoubt, b)
		return err
	}
	u.acked = append(u.acked, b)
	u.payload += int64(len(payload))
	return nil
}

func (u *uploader) close() { u.conn.Close() }

// ---- cluster readings from the public telemetry ----

// clusterReadings are the per-layer numbers the cluster's USE
// telemetry and router counters expose.
type clusterReadings struct {
	opsPerFsync   float64
	fsyncP50us    float64
	fsyncP99us    float64
	queueMax      float64
	shardWaitFrac float64
	forwardErrors float64
	replicaErrors float64
}

// readCluster folds every node's samples: fsync latency and queue depth
// take the worst node, ops per fsync is weighted by each node's
// flushes. Node samples carry "<node>/" resource prefixes.
func readCluster(cl *cluster.Cluster) clusterReadings {
	var r clusterReadings
	snap := cl.Telemetry()
	flushes := map[string]float64{}
	means := map[string]float64{}
	for _, s := range snap.Samples {
		node, res, _ := strings.Cut(s.Resource, "/")
		switch {
		case res == "journal-fsync" && s.Axis == telemetry.Utilization:
			var n float64
			if _, err := fmt.Sscanf(s.Detail, "%g flushes", &n); err == nil {
				flushes[node] = n
			}
		case res == "journal-fsync" && s.Axis == telemetry.Saturation:
			r.fsyncP50us = max(r.fsyncP50us, s.Value/1e3)
			if i := strings.Index(s.Detail, "p99 "); i >= 0 {
				if d, err := time.ParseDuration(strings.TrimSpace(s.Detail[i+4:])); err == nil {
					r.fsyncP99us = max(r.fsyncP99us, float64(d)/1e3)
				}
			}
		case res == "journal-queue":
			r.queueMax = max(r.queueMax, s.Value)
		case res == "journal-batch":
			var mean float64
			if _, err := fmt.Sscanf(s.Detail, "mean %g ops/fsync", &mean); err == nil {
				means[node] = mean
			}
		case res == "shard-locks":
			r.shardWaitFrac = max(r.shardWaitFrac, s.Value)
		case res == "replica":
			r.replicaErrors += s.Value
		}
	}
	var ops, fl float64
	for node, n := range flushes {
		ops += means[node] * n
		fl += n
	}
	if fl > 0 {
		r.opsPerFsync = ops / fl
	}
	st := cl.Router().Stats()
	r.forwardErrors = float64(st.Retries + st.Misroutes)
	return r
}

// primaryJournalBytes is the on-disk size of the nodes' own state files
// under root (replica copies excluded).
func primaryJournalBytes(root string) int64 {
	return dirBytes(root, func(path string) bool {
		rel, err := filepath.Rel(root, path)
		return err == nil && !strings.Contains(rel, "replica-")
	})
}

// mergeDataset merges every node and replica directory under root, with
// the merge's default options, into a dataset tally.
func mergeDataset(root, tmp string, perBatch int) (*dataset, error) {
	d := newDataset(perBatch)
	_, err := cluster.MergeTreeOpts(newRunLineWriter(d), root, cluster.MergeOptions{TempDir: tmp})
	return d, err
}

// mkdir creates a fresh directory under parent.
func mkdir(parent, name string) (string, error) {
	dir := filepath.Join(parent, name)
	return dir, os.MkdirAll(dir, 0o755)
}
