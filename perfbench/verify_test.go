package main

import (
	"strings"
	"testing"
)

func datasetOf(perBatch int, batches ...batchID) *dataset {
	d := newDataset(perBatch)
	for _, b := range batches {
		for k := 0; k < perBatch; k++ {
			d.addRun(runName(b, k))
		}
	}
	return d
}

// A lost batch and a duplicated batch of the same size leave the run
// count unchanged; the identity check must still fail and name both.
func TestExactlyOnceLostPlusDuplicateFails(t *testing.T) {
	const perBatch = 3
	var acked []batchID
	for seq := uint64(1); seq <= 10; seq++ {
		acked = append(acked, batchID{client: "uucs-00ab", seq: seq})
	}
	lost, dup := acked[2], acked[6]
	var stored []batchID
	for _, b := range acked {
		switch b {
		case lost:
		case dup:
			stored = append(stored, b, b)
		default:
			stored = append(stored, b)
		}
	}
	d := datasetOf(perBatch, stored...)
	if d.runs != len(acked)*perBatch {
		t.Fatalf("fixture: %d runs, want the acked total %d", d.runs, len(acked)*perBatch)
	}
	v := exactlyOnce(acked, nil, d)
	if v.ok() {
		t.Fatal("verifier accepted a lost batch hidden by a duplicated one")
	}
	if len(v.missing) != 1 || v.missing[0] != lost {
		t.Errorf("missing = %v, want [%v]", v.missing, lost)
	}
	if len(v.duplicated) != 1 || v.duplicated[0] != dup {
		t.Errorf("duplicated = %v, want [%v]", v.duplicated, dup)
	}
	msg := v.String()
	for _, want := range []string{lost.String(), dup.String()} {
		if !strings.Contains(msg, want) {
			t.Errorf("verdict %q does not name %s", msg, want)
		}
	}
}

func TestExactlyOnceVerdicts(t *testing.T) {
	a, b, c := batchID{"uucs-1", 1}, batchID{"uucs-1", 2}, batchID{"uucs-2", 1}
	torn := newDataset(2)
	torn.addRun(runName(a, 0))
	torn.addRun(runName(a, 1))
	torn.addRun(runName(b, 0))
	junk := datasetOf(2, a)
	junk.addRun("ctrl-word-1")
	for _, tc := range []struct {
		name    string
		acked   []batchID
		inDoubt []batchID
		d       *dataset
		ok      bool
		field   func(verdict) int
	}{
		{"exact", []batchID{a, b}, nil, datasetOf(2, a, b), true, nil},
		{"in doubt present", []batchID{a}, []batchID{b}, datasetOf(2, a, b), true, nil},
		{"in doubt absent", []batchID{a}, []batchID{b}, datasetOf(2, a), true, nil},
		{"extra", []batchID{a}, nil, datasetOf(2, a, c), false, func(v verdict) int { return len(v.extra) }},
		{"missing", []batchID{a, c}, nil, datasetOf(2, a), false, func(v verdict) int { return len(v.missing) }},
		{"torn", []batchID{a, b}, nil, torn, false, func(v verdict) int { return len(v.torn) }},
		{"unidentified", []batchID{a}, nil, junk, false, func(v verdict) int { return len(v.bad) }},
	} {
		v := exactlyOnce(tc.acked, tc.inDoubt, tc.d)
		if v.ok() != tc.ok {
			t.Errorf("%s: ok = %v (%v), want %v", tc.name, v.ok(), v, tc.ok)
		}
		if tc.field != nil && tc.field(v) != 1 {
			t.Errorf("%s: verdict %v does not report exactly one offender", tc.name, v)
		}
	}
}

func TestRunNameRoundTrip(t *testing.T) {
	b := batchID{client: "uucs-0123456789abcdef", seq: 42}
	got, k, err := parseRunName(runName(b, 3))
	if err != nil || got != b || k != 3 {
		t.Fatalf("parseRunName(runName(%v, 3)) = %v, %d, %v", b, got, k, err)
	}
	for _, bad := range []string{"ctrl-word-1", "x.y", "x.1.-1", "x.y.1"} {
		if _, _, err := parseRunName(bad); err == nil {
			t.Errorf("parseRunName(%q) accepted a name without a batch identity", bad)
		}
	}
}

// The merge writes its dataset in arbitrary chunks; run lines split
// across writes must still be counted once.
func TestRunLineWriterAcrossChunks(t *testing.T) {
	b := batchID{client: "uucs-9", seq: 7}
	text := "run " + runName(b, 0) + "\ntask word\nendrun\nrun " + runName(b, 1) + "\nendrun\n"
	whole := newRunLineWriter(newDataset(2))
	whole.Write([]byte(text))
	for _, step := range []int{1, 2, 5, 7} {
		d := newDataset(2)
		w := newRunLineWriter(d)
		for i := 0; i < len(text); i += step {
			w.Write([]byte(text[i:min(i+step, len(text))]))
		}
		if v := exactlyOnce([]batchID{b}, nil, d); !v.ok() || d.runs != 2 {
			t.Errorf("chunk %d: %d runs, verdict %v", step, d.runs, v)
		}
		if w.digest() != whole.digest() {
			t.Errorf("chunk %d: digest depends on write boundaries", step)
		}
	}
}
