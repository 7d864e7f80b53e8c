package main

import (
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
)

// Exactly-once verification by identity. Every uploaded run record
// carries the identity of the batch it rode in, written into its
// testcase id as "<client id>.<seq>.<k>" (k is the run's slot in the
// batch). The verifier compares the multiset of batches found in a
// dataset with the set the cluster acknowledged, and names every
// missing, extra and duplicated batch, so a lost batch and a
// duplicated one cannot cancel out the way they would in a count.

// batchID names one upload batch: the server-assigned client id and the
// client's batch sequence number.
type batchID struct {
	client string
	seq    uint64
}

func (b batchID) String() string { return fmt.Sprintf("(%s, %d)", b.client, b.seq) }

// runName is the testcase id a run in slot k of batch b carries.
func runName(b batchID, k int) string {
	return b.client + "." + strconv.FormatUint(b.seq, 10) + "." + strconv.Itoa(k)
}

// parseRunName inverts runName.
func parseRunName(name string) (batchID, int, error) {
	i := strings.LastIndexByte(name, '.')
	if i < 0 {
		return batchID{}, 0, fmt.Errorf("run %q carries no batch identity", name)
	}
	j := strings.LastIndexByte(name[:i], '.')
	if j < 0 {
		return batchID{}, 0, fmt.Errorf("run %q carries no batch identity", name)
	}
	seq, err := strconv.ParseUint(name[j+1:i], 10, 64)
	if err != nil {
		return batchID{}, 0, fmt.Errorf("run %q: bad seq: %v", name, err)
	}
	k, err := strconv.Atoi(name[i+1:])
	if err != nil || k < 0 {
		return batchID{}, 0, fmt.Errorf("run %q: bad slot", name)
	}
	return batchID{client: name[:j], seq: seq}, k, nil
}

// dataset tallies the run records of a dataset by batch and slot.
type dataset struct {
	perBatch     int
	slots        map[batchID][]int
	runs         int
	unidentified []string
}

func newDataset(runsPerBatch int) *dataset {
	return &dataset{perBatch: runsPerBatch, slots: make(map[batchID][]int)}
}

// addRun records one run record by its testcase id.
func (d *dataset) addRun(name string) {
	d.runs++
	b, k, err := parseRunName(name)
	if err != nil || k >= d.perBatch {
		if len(d.unidentified) < 8 {
			d.unidentified = append(d.unidentified, name)
		}
		return
	}
	s := d.slots[b]
	if s == nil {
		s = make([]int, d.perBatch)
		d.slots[b] = s
	}
	s[k]++
}

// verdict is the outcome of an exactly-once check.
type verdict struct {
	missing    []batchID // acked, absent from the dataset
	extra      []batchID // in the dataset, never acked (nor in doubt)
	duplicated []batchID // in the dataset more than once
	torn       []batchID // some slots of the batch present, others not
	bad        []string  // run records without a batch identity
}

func (v verdict) ok() bool {
	return len(v.missing)+len(v.extra)+len(v.duplicated)+len(v.torn)+len(v.bad) == 0
}

func (v verdict) String() string {
	if v.ok() {
		return "exactly once"
	}
	var parts []string
	add := func(what string, ids []batchID) {
		if len(ids) == 0 {
			return
		}
		names := make([]string, 0, 4)
		for i, id := range ids {
			if i == 4 {
				names = append(names, fmt.Sprintf("... %d more", len(ids)-4))
				break
			}
			names = append(names, id.String())
		}
		parts = append(parts, fmt.Sprintf("%d %s: %s", len(ids), what, strings.Join(names, " ")))
	}
	add("missing", v.missing)
	add("extra", v.extra)
	add("duplicated", v.duplicated)
	add("torn", v.torn)
	if len(v.bad) > 0 {
		parts = append(parts, fmt.Sprintf("unidentified runs: %s", strings.Join(v.bad, " ")))
	}
	return strings.Join(parts, "; ")
}

// exactlyOnce checks that every acked batch is in the dataset exactly
// once and nothing else is. Batches in doubt (sent, never acked) may be
// present once or absent.
func exactlyOnce(acked, inDoubt []batchID, d *dataset) verdict {
	var v verdict
	v.bad = d.unidentified
	want := make(map[batchID]bool, len(acked)+len(inDoubt))
	for _, b := range acked {
		want[b] = true
	}
	for _, b := range inDoubt {
		if _, ok := want[b]; !ok {
			want[b] = false
		}
	}
	for b, slots := range d.slots {
		lo, hi := slots[0], slots[0]
		for _, n := range slots[1:] {
			lo, hi = min(lo, n), max(hi, n)
		}
		switch {
		case lo != hi:
			v.torn = append(v.torn, b)
		case hi > 1:
			v.duplicated = append(v.duplicated, b)
		}
		if _, ok := want[b]; !ok {
			v.extra = append(v.extra, b)
		}
	}
	for b, isAcked := range want {
		if _, ok := d.slots[b]; !ok && isAcked {
			v.missing = append(v.missing, b)
		}
	}
	for _, ids := range [][]batchID{v.missing, v.extra, v.duplicated, v.torn} {
		sort.Slice(ids, func(i, j int) bool {
			if ids[i].client != ids[j].client {
				return ids[i].client < ids[j].client
			}
			return ids[i].seq < ids[j].seq
		})
	}
	return v
}

// runLineWriter is the io.Writer a merge streams its dataset into: it
// hashes every byte and feeds each "run <id>" line to a dataset.
type runLineWriter struct {
	d    *dataset
	h    hash.Hash64
	part []byte
}

func newRunLineWriter(d *dataset) *runLineWriter {
	return &runLineWriter{d: d, h: fnv.New64a()}
}

func (w *runLineWriter) Write(p []byte) (int, error) {
	w.h.Write(p)
	rest := p
	if len(w.part) > 0 {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			w.part = append(w.part, rest...)
			return len(p), nil
		}
		w.part = append(w.part, rest[:i]...)
		w.line(w.part)
		w.part = w.part[:0]
		rest = rest[i+1:]
	}
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			w.part = append(w.part, rest...)
			return len(p), nil
		}
		w.line(rest[:i])
		rest = rest[i+1:]
	}
}

func (w *runLineWriter) line(l []byte) {
	if bytes.HasPrefix(l, []byte("run ")) {
		w.d.addRun(string(bytes.TrimSpace(l[4:])))
	}
}

func (w *runLineWriter) digest() uint64 { return w.h.Sum64() }
