package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ---- spans ----

// span is one timed call the benchmark made into a layer of the
// program. Parent indexes the enclosing span in the same lane, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// lane is the span log of one load goroutine. Lanes are never shared
// between goroutines, so recording takes no lock. A nil lane records
// nothing: untraced code paths pass nil and pay one comparison.
type lane struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its handle for end.
func (l *lane) begin(name string, parent int32) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.t0)), End: -1, Parent: parent})
	return int32(len(l.spans) - 1)
}

// end closes the span begin returned.
func (l *lane) end(i int32) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = int64(time.Since(l.t0))
}

// tracer owns every lane of one run. Spans stay in memory until write.
type tracer struct {
	t0    time.Time
	lanes []*lane
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// lane adds a lane; call before the goroutine that uses it starts.
func (t *tracer) lane() *lane {
	l := &lane{t0: t.t0}
	t.lanes = append(t.lanes, l)
	return l
}

// durations returns the durations, in seconds, of every closed span
// with the given name, across all lanes.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.Name == name && s.End >= s.Start {
				out = append(out, float64(s.End-s.Start)/1e9)
			}
		}
	}
	return out
}

// topLevelSeconds sums the durations of the lane's root spans that
// started at or after from (an index into the lane's span log).
func (l *lane) topLevelSeconds(from int) float64 {
	var sum int64
	for _, s := range l.spans[from:] {
		if s.Parent < 0 && s.End >= s.Start {
			sum += s.End - s.Start
		}
	}
	return float64(sum) / 1e9
}

// write stores every span as JSON lines, preceded by the fingerprint.
func (t *tracer) write(path string, fp fingerprint) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"fingerprint": fp}); err != nil {
		f.Close()
		return err
	}
	for li, l := range t.lanes {
		for i, s := range l.spans {
			rec := struct {
				Lane int `json:"lane"`
				ID   int `json:"id"`
				span
			}{li, i, s}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- traced/untraced alternation ----

// modeClock alternates a traced run between untraced and traced time
// slices, so tracing overhead is measured on the same process, data
// and moment. Slice 0 is untraced.
type modeClock struct {
	start time.Time
	slice time.Duration
}

func (c modeClock) tracedAt(t time.Time) bool {
	return (t.Sub(c.start)/c.slice)%2 == 1
}

// modeTally accumulates completed operations and the wall time they
// occupied, split by mode (index 0 untraced, 1 traced).
type modeTally struct {
	ops  [2]float64
	secs [2]float64
	// covered is the root-span time inside traced operations.
	covered float64
}

func (m *modeTally) add(traced bool, secs float64) {
	i := 0
	if traced {
		i = 1
	}
	m.ops[i]++
	m.secs[i] += secs
}

func (m *modeTally) merge(o *modeTally) {
	for i := range m.ops {
		m.ops[i] += o.ops[i]
		m.secs[i] += o.secs[i]
	}
	m.covered += o.covered
}

// overheadFrac is how much slower operations ran traced than untraced:
// untraced throughput over traced throughput, minus one.
func (m *modeTally) overheadFrac() float64 {
	if m.ops[0] == 0 || m.ops[1] == 0 || m.secs[0] == 0 || m.secs[1] == 0 {
		return 0
	}
	return (m.ops[0]/m.secs[0])/(m.ops[1]/m.secs[1]) - 1
}

// unaccountedFrac is the share of traced operation time no root span
// covers: time the benchmark spent between layer calls.
func (m *modeTally) unaccountedFrac() float64 {
	if m.secs[1] == 0 {
		return 0
	}
	f := 1 - m.covered/m.secs[1]
	if f < 0 {
		return 0
	}
	return f
}

// fillProcess sets the per-layer metrics every workload reports: the
// process's cost per operation, the GC's CPU share, and the trace
// bookkeeping.
func fillProcess(m map[string]float64, d procDelta, ops float64, tally *modeTally) {
	m["process.cpu_us_per_op"] = d.cpuSecs * 1e6 / ops
	m["process.allocs_per_op"] = d.allocs / ops
	m["runtime.gc_cpu_frac"] = d.gcFrac
	m["trace.overhead_frac"] = tally.overheadFrac()
	m["trace.unaccounted_frac"] = tally.unaccountedFrac()
}

// ---- closed loops ----

// laneResult is what one closed-loop goroutine measured.
type laneResult struct {
	lats           []float64 // untraced operation latencies, seconds
	tally          modeTally
	first, last    time.Time
	acked, inDoubt []batchID
	err            error
}

// closedLoop is the timed phase of the ingest-side workloads: each
// goroutine runs one closed loop until the phase ends. The heap is read
// once heapAt operations were acked in all, so the reading stands for a
// fixed amount of work, not for however much a phase of fixed length
// got done.
type closedLoop struct {
	clock    modeClock
	stop     time.Time // end of the timed phase
	hardStop time.Time // the latest end while the heap reading is due
	heapAt   int64
	count    atomic.Int64
	heapRead atomic.Bool

	mu     sync.Mutex
	cond   *sync.Cond // broadcast when the heap is read
	loops  int        // loops still running
	idle   int        // loops waiting for the heap reading
	heapMB float64    // read after the loops end
}

// more reports whether a loop starts another operation at now. The
// phase runs on past stop only until the heap reading is taken.
func (c *closedLoop) more(now time.Time) bool {
	return now.Before(c.stop) || (!c.heapRead.Load() && now.Before(c.hardStop))
}

// acked counts one acked operation; call it between operations, outside
// their timing. Once heapAt operations are acked, each loop waits here
// until every running loop does, and the last to arrive reads the heap:
// no operation in flight adds to the reading.
func (c *closedLoop) acked() {
	if c.count.Add(1) < c.heapAt || c.heapRead.Load() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idle++
	c.readHeapIfIdle()
	for !c.heapRead.Load() {
		c.cond.Wait()
	}
}

// leave marks a loop as ended, so the heap reading no longer waits for
// it.
func (c *closedLoop) leave() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.loops--
	c.readHeapIfIdle()
}

// readHeapIfIdle forces a collection and reads the live heap if the
// reading is due and every running loop is idle. c.mu is held.
func (c *closedLoop) readHeapIfIdle() {
	if c.heapRead.Load() || c.count.Load() < c.heapAt || c.idle < c.loops {
		return
	}
	c.heapMB = liveHeapMB()
	c.heapRead.Store(true)
	c.cond.Broadcast()
}

// loopPhase is a closed-loop timed phase, merged over its lanes.
type loopPhase struct {
	laneResult
	heapMB float64
	proc   procDelta
}

// runLoops runs drive on n goroutines, each with its own span lane, for
// e.seconds, and merges what they measured. A lane that failed is
// logged; its operation counts as failed.
func runLoops(e *env, n int, heapAt int64, drive func(i int, ln *lane, c *closedLoop) laneResult) (*loopPhase, error) {
	lanes := make([]*lane, n)
	for i := range lanes {
		lanes[i] = e.tr.lane()
	}
	results := make([]laneResult, n)
	before := readProc()
	start := time.Now()
	c := &closedLoop{
		clock:    modeClock{start: start, slice: 250 * time.Millisecond},
		stop:     start.Add(e.seconds),
		hardStop: start.Add(2 * e.seconds),
		heapAt:   heapAt,
		loops:    n,
	}
	c.cond = sync.NewCond(&c.mu)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer c.leave()
			results[i] = drive(i, lanes[i], c)
		}(i)
	}
	wg.Wait()
	p := &loopPhase{proc: before.to(readProc()), heapMB: c.heapMB}
	for i, r := range results {
		if r.err != nil {
			fmt.Fprintf(e.log, "perfbench: loop %d: %v\n", i, r.err)
		}
		p.lats = append(p.lats, r.lats...)
		p.acked = append(p.acked, r.acked...)
		p.inDoubt = append(p.inDoubt, r.inDoubt...)
		p.tally.merge(&r.tally)
		if p.first.IsZero() || r.first.Before(p.first) {
			p.first = r.first
		}
		if r.last.After(p.last) {
			p.last = r.last
		}
	}
	if len(p.acked) == 0 {
		return nil, fmt.Errorf("no operation was acked")
	}
	if !c.heapRead.Load() {
		return nil, fmt.Errorf("only %d of the %d operations the heap reading needs were acked", len(p.acked), heapAt)
	}
	return p, nil
}

// fill sets the metrics of a closed-loop workload: the end-to-end ones
// in an untraced run, and in a traced one the per-layer metrics both
// closed-loop workloads share.
func (p *loopPhase) fill(e *env, m map[string]float64, setups []float64, r clusterReadings) {
	if !e.traced {
		m["throughput_per_s"] = float64(len(p.acked)) / p.last.Sub(p.first).Seconds()
		m["latency_p50_ms"] = quantile(p.lats, 0.5) * 1e3
		m["latency_p90_ms"] = quantile(p.lats, 0.9) * 1e3
		m["peak_heap_mb"] = p.heapMB
		m["setup_s"] = median(setups)
		return
	}
	fillProcess(m, p.proc, float64(len(p.acked)), &p.tally)
	m["server.ops_per_fsync"] = r.opsPerFsync
	m["server.fsync_p50_us"] = r.fsyncP50us
	m["server.fsync_p99_us"] = r.fsyncP99us
	m["server.journal_queue_max"] = r.queueMax
	m["server.shard_wait_frac"] = r.shardWaitFrac
	m["cluster.forward_errors"] = r.forwardErrors
	m["cluster.replica_errors"] = r.replicaErrors
}

// ---- statistics ----

// quantile is the nearest-rank quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ---- process counters ----

// procSample is a reading of the process-wide counters the Go runtime
// and the kernel expose.
type procSample struct {
	cpuSecs  float64 // user + system CPU from getrusage
	gcCPU    float64 // runtime estimate of GC CPU seconds
	totalCPU float64 // runtime estimate of all CPU seconds
	allocs   float64 // heap objects allocated so far
}

var procMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() procSample {
	var s procSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpuSecs = float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	}
	ms := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	s.gcCPU = metricFloat(ms[0])
	s.totalCPU = metricFloat(ms[1])
	s.allocs = mallocs()
	return s
}

func metricFloat(m metrics.Sample) float64 {
	switch m.Value.Kind() {
	case metrics.KindFloat64:
		return m.Value.Float64()
	case metrics.KindUint64:
		return float64(m.Value.Uint64())
	}
	return 0
}

// mallocs is the exact count of heap objects allocated so far. It
// stops the world briefly, so it stays out of per-operation paths.
func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// procDelta is what the process spent between two samples.
type procDelta struct {
	cpuSecs, gcFrac, allocs float64
}

func (a procSample) to(b procSample) procDelta {
	d := procDelta{cpuSecs: b.cpuSecs - a.cpuSecs, allocs: b.allocs - a.allocs}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcFrac = (b.gcCPU - a.gcCPU) / tot
	}
	return d
}

// heapWatch samples the live heap (as of the latest GC) until stopped
// and keeps the high-water mark.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap(every time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(ms)
			if v := ms[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MB. The live heap is
// only known as of the latest GC, so a final collection makes the
// reading at the end of the timed phase exact rather than as stale as
// the GC cycle.
func (h *heapWatch) finish() float64 {
	close(h.stop)
	<-h.done
	return max(float64(h.peak)/(1<<20), liveHeapMB())
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(ms)
	return float64(ms[0].Value.Uint64()) / (1 << 20)
}

// ---- machine fingerprint ----

// fingerprint identifies the machine and settings a result came from,
// so results from different machines are never compared unawares.
type fingerprint struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	FsyncP50us float64 `json:"fsync_p50_us"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Traced     bool    `json:"traced"`
}

func takeFingerprint(dir, workload string, seed uint64, traced bool) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		FsyncP50us: fsyncProbe(dir, 16),
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsyncProbe times n append-and-fsync rounds of one 4 KiB block in dir
// and returns the median in microseconds (0 if the probe failed).
func fsyncProbe(dir string, n int) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		lat = append(lat, float64(time.Since(t0).Microseconds()))
	}
	return median(lat)
}

// ---- misc ----

// dirBytes is the total size of the regular files under dir for which
// keep returns true.
func dirBytes(dir string, keep func(path string) bool) int64 {
	var n int64
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() && keep(path) {
			n += info.Size()
		}
		return nil
	})
	return n
}

// problems collects correctness failures; safe for concurrent use.
type problems struct {
	mu   sync.Mutex
	list []string
}

func (p *problems) addf(format string, args ...any) {
	p.mu.Lock()
	p.list = append(p.list, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}
