package server

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uucs/internal/core"
	"uucs/internal/protocol"
	"uucs/internal/testcase"
)

// Parallel journal replay. Replay's expensive part — JSON unmarshal,
// run-payload decode, frame CRC — is, at a 64MB multi-segment journal,
// the whole cost of a cold restart and of failover promotion, so replay
// runs in three phases that put it on every core while keeping the
// restored state bit-identical to ReplayWorkers=1:
//
//  1. Boundary scan (sequential, cheap): scanState (records.go) splits
//     each state file into records without decoding anything. This
//     phase fixes the record order: the global record index is (file
//     order, offset order).
//  2. Decode (parallel): workers grab record indexes from an atomic
//     cursor and fully decode each record in isolation — decodeOp, then
//     the run/testcase payload. No record's decode depends on any other
//     record, so this phase is embarrassingly parallel and holds the
//     dominant cost.
//  3. Apply (per-shard queues): the main goroutine dispatches records
//     in global order. Client and results ops go to one of 16 apply
//     queues keyed by shardFor(client id) — the same hash that shards
//     the live server — so all ops of one client apply in record
//     order, which is the only order the dedup logic (lastSeq
//     monotonicity, registration-before-upload) ever reads. Ops with
//     cross-shard effects (testcases) apply inline on the dispatch
//     goroutine, still in record order. Accepted run batches are not
//     appended to the result store by the workers — they are collected
//     per record index and concatenated in record order after the
//     queues drain, so s.results does not depend on the worker count.
//
// Why per-client order is sufficient: replay decisions read only
// per-client state (shard.clients[id], shard.lastSeq[id]) and
// idempotent global maps (nonce → id, testcase id dedup). Two records
// touching different clients commute; two records touching the same
// client share a queue. Errors are collected with their record index
// and the minimum-index error is returned — the first error in record
// order, whatever the worker count.
//
// Torn tails follow the reader's one policy (records.go): only the
// final record of the active journal may be torn. A torn binary frame
// never reaches replay; a torn JSON line is decoded and applied, with
// any error silently dropping it — if it applies cleanly it is state.

// replayStats describes one LoadState replay.
type replayStats struct {
	lastNanos atomic.Int64  // wall time of the most recent replay
	records   atomic.Uint64 // records applied by the most recent replay
	files     atomic.Uint64 // state files scanned by the most recent replay
	bytes     atomic.Uint64 // bytes scanned by the most recent replay
}

// replayDec is a record's decoded form, produced by a phase-2 worker.
type replayDec struct {
	op   journalOp
	runs []*core.Run          // pre-decoded opResults payload
	tcs  []*testcase.Testcase // pre-decoded opTestcases payload
	err  error
}

// journalFilesIn returns dir's journal files in replay order: sealed
// segments ascending by seal sequence, then the active journal (which
// may not exist yet). A gap in the sealed sequence is corruption — a
// missing middle segment would silently drop acked ops — and poisons
// the load. A missing prefix is legal: compaction deletes covered
// segments from the front.
func journalFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return []string{JournalPath(dir)}, nil
	}
	if err != nil {
		return nil, err
	}
	type seg struct {
		seq  int
		name string
	}
	var segs []seg
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if seq, ok := segmentSeq(e.Name()); ok {
			segs = append(segs, seg{seq, e.Name()})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	paths := make([]string, 0, len(segs)+1)
	for i, sg := range segs {
		if i > 0 && sg.seq != segs[i-1].seq+1 {
			return nil, fmt.Errorf("server: journal segment sequence gap: %s follows %s", sg.name, segs[i-1].name)
		}
		paths = append(paths, filepath.Join(dir, sg.name))
	}
	return append(paths, JournalPath(dir)), nil
}

// StateFiles returns every state file of dir in replay order: the
// snapshot, sealed journal segments ascending, then the active
// journal. Any file may be absent (scan a missing file as empty). It
// fails on a sealed-segment sequence gap, which a reader must treat as
// corruption rather than skip.
func StateFiles(dir string) ([]string, error) {
	jf, err := journalFilesIn(dir)
	if err != nil {
		return nil, err
	}
	return append([]string{filepath.Join(dir, snapshotFile)}, jf...), nil
}

// IsStateFileName reports whether base names a server state file (the
// snapshot, the active journal, or a sealed segment).
func IsStateFileName(base string) bool {
	if base == snapshotFile || base == journalFile {
		return true
	}
	_, ok := segmentSeq(base)
	return ok
}

// tailState describes what OpenState must do to the active journal's
// physical tail before appending to it, so that a journal that lost
// its tail to a crash is never appended to mid-record (which would
// poison the *next* replay: a torn record is only tolerated at EOF).
type tailState struct {
	// size is the length of the active journal's valid prefix — every
	// byte of every record that replay kept.
	size int64
	// terminate is set when the final kept record is a JSON line whose
	// newline the crash ate: the line applied cleanly and is state, so
	// it must be sealed with a '\n' rather than truncated away.
	terminate bool
}

// decodeRec fully decodes one record: decodeOp, then the payload (runs
// or testcases). f is a per-worker scratch frame.
func decodeRec(r *stateRec, d *replayDec, f *protocol.Frame) {
	d.op, d.err = decodeOp(r, f)
	if d.err != nil {
		return
	}
	switch d.op.Op {
	case opResults:
		d.runs, d.err = core.DecodeRuns(strings.NewReader(d.op.Payload))
	case opTestcases:
		d.tcs, d.err = testcase.DecodeAll(strings.NewReader(d.op.Payload))
	}
}

// applyClientShard replays one opClient into the shard stores. The
// decoder has already checked the op carries an id and a snapshot.
func (s *Server) applyClientShard(op *journalOp) {
	s.regMu.Lock()
	sh := s.shardFor(op.ID)
	sh.lock()
	sh.clients[op.ID] = *op.Snapshot
	if op.LastSeq > sh.lastSeq[op.ID] {
		sh.lastSeq[op.ID] = op.LastSeq
	}
	sh.mu.Unlock()
	if op.Nonce != "" {
		s.nonces[op.Nonce] = op.ID
	}
	s.regMu.Unlock()
}

// applyResultsShard replays the shard-local half of one opResults:
// registration check, (id, seq) dedup, lastSeq advance. It reports
// whether the batch's runs belong in the result store; the caller owns
// the append so record order is preserved no matter which goroutine
// runs the shard half.
func (s *Server) applyResultsShard(op *journalOp) (keep bool, err error) {
	sh := s.shardFor(op.ID)
	sh.lock()
	defer sh.mu.Unlock()
	if op.Seq > 0 {
		if _, ok := sh.clients[op.ID]; !ok {
			return false, fmt.Errorf("results op for unknown client %q", op.ID)
		}
		if op.Seq <= sh.lastSeq[op.ID] {
			return false, nil // already covered by the snapshot
		}
		sh.lastSeq[op.ID] = op.Seq
	}
	return true, nil
}

// replayError collects record-indexed errors from the dispatch
// goroutine and the shard workers, keeping the minimum-index one — the
// first failure in record order, whatever the worker count.
type replayError struct {
	mu  sync.Mutex
	idx int
	err error
}

func (re *replayError) record(idx int, err error) {
	re.mu.Lock()
	if re.err == nil || idx < re.idx {
		re.idx, re.err = idx, err
	}
	re.mu.Unlock()
}

func (re *replayError) first() error {
	re.mu.Lock()
	defer re.mu.Unlock()
	return re.err
}

// loadStateDir restores the server's stores from dir's state files and
// reports what OpenState must do to the active journal's physical tail.
// This is LoadState's engine; see the file comment for the phase
// structure and the bit-identity argument.
func (s *Server) loadStateDir(dir string) (tailState, error) {
	start := time.Now()

	// Phase 1: boundary-scan every file. A scan error tearing cannot
	// explain ends the scan at its record; dispatch reports it there.
	var recs []stateRec
	scan, err := scanState(dir, func(r *stateRec) error {
		recs = append(recs, *r)
		return nil
	})
	if err != nil {
		return tailState{}, err
	}
	// A kept torn JSON line may extend the valid prefix to the whole
	// file — decided after apply, below.
	tail := tailState{size: scan.valid}

	// Phase 2: decode every record in parallel.
	workers := s.ReplayWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(recs) {
		workers = len(recs)
	}
	decs := make([]replayDec, len(recs))
	if workers > 1 {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var f protocol.Frame
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(recs) {
						return
					}
					decodeRec(&recs[i], &decs[i], &f)
				}
			}()
		}
		wg.Wait()
	} else {
		var f protocol.Frame
		for i := range recs {
			decodeRec(&recs[i], &decs[i], &f)
		}
	}

	// Phase 3: dispatch in record order to per-shard apply queues.
	var (
		re      replayError
		runsOut = make([][]*core.Run, len(recs))
		applied = make([]bool, len(recs))
		chans   [numShards]chan int
		wg      sync.WaitGroup
	)
	for i := range chans {
		chans[i] = make(chan int, 128)
		wg.Add(1)
		go func(ch <-chan int) {
			defer wg.Done()
			for idx := range ch {
				r, d := &recs[idx], &decs[idx]
				switch d.op.Op {
				case opClient:
					s.applyClientShard(&d.op)
				case opResults:
					keep, err := s.applyResultsShard(&d.op)
					if err != nil {
						if !r.torn {
							re.record(idx, errAt(r, err))
						}
						continue
					}
					if keep {
						runsOut[idx] = d.runs
					}
				}
				applied[idx] = true
			}
		}(chans[i])
	}

	for idx := range recs {
		r, d := &recs[idx], &decs[idx]
		if d.err == nil {
			switch d.op.Op {
			case opClient, opResults:
				chans[shardIndex(d.op.ID)] <- idx
				continue
			case opTestcases:
				// Inline, in record order: the testcase store is global
				// and its append order is part of the bit-identity
				// contract.
				d.err = s.addTestcases(d.tcs, false)
			}
		}
		if d.err != nil {
			if r.torn {
				continue // torn tail that failed to decode or apply: dropped
			}
			re.record(idx, errAt(r, d.err))
			break
		}
		applied[idx] = true // meta and jmeta (versions checked by decodeOp), testcases
	}
	for i := range chans {
		close(chans[i])
	}
	wg.Wait()
	if err := re.first(); err != nil {
		return tailState{}, err
	}

	// Accepted run batches land in the result store in record order —
	// the workers only decided, the dispatch order decides placement.
	var appliedRecs uint64
	s.resMu.Lock()
	for idx, runs := range runsOut {
		if runs != nil {
			s.results = append(s.results, runs...)
		}
		if applied[idx] {
			appliedRecs++
		}
	}
	s.resMu.Unlock()

	// A torn final JSON line that decoded and applied cleanly is state;
	// seal it with the newline the crash ate. Otherwise it was dropped
	// everywhere and its bytes must go too.
	if n := len(recs); n > 0 && recs[n-1].torn {
		last := &recs[n-1]
		if applied[n-1] {
			tail.size = int64(last.pos + len(last.data))
			tail.terminate = true
		} else {
			tail.size = int64(last.pos)
		}
	}

	s.replayStats.lastNanos.Store(time.Since(start).Nanoseconds())
	s.replayStats.records.Store(appliedRecs)
	s.replayStats.files.Store(uint64(scan.files))
	s.replayStats.bytes.Store(uint64(scan.bytes))
	return tail, nil
}

// shardIndex returns the shard slot owning a client id (shardFor's
// index form, for the per-shard apply queues).
func shardIndex(clientID string) int {
	return int(hashString(0xcbf29ce484222325, clientID) & (numShards - 1))
}
