package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"unsafe"

	"uucs/internal/protocol"
)

// The state-dir reader. Every consumer of snapshot and journal bytes —
// LoadState's replay (replay.go) and the cluster merge (WalkState) —
// goes through the one boundary scanner (scanState) and the one record
// decoder (decodeOp) below, so there is exactly one definition of a
// valid record and of a tolerated tear.
//
// Record formats: the snapshot holds one JSON op per line. The journal
// mixes two record formats, distinguished per record by the first byte:
// '{' starts a JSON op line (every v2-era record, plus the cold ops —
// registrations, testcases — a v3 server still writes as JSON), and
// protocol.FrameMagic starts a verbatim v3 wire frame. Hot v3 result
// uploads are journaled as the exact frame bytes the client sent, so
// the append is a memcpy, the record carries its own CRC, and replay
// re-validates it with the wire decoder instead of a JSON parse. A
// fresh journal opens with a self-identifying jmeta header frame; a
// v2-era journal has no header and replays through the same scanner
// unchanged, which is the whole migration story — no rewrite, no
// conversion.
//
// Torn tails: a torn record is tolerated only at the end of the active
// journal (a crash mid-append); a sealed segment or the snapshot never
// tolerates one. A JSON record is torn if its final newline is missing:
// it is still decoded and applied, and any error on it drops it
// silently. A binary record is torn if the file ends before the frame's
// declared length (ErrShortFrame): it is dropped unread. A complete
// binary record that fails its CRC — e.g. a corrupted header mid-file —
// is never treated as tearing: it poisons the load, because a CRC-valid
// prefix cannot be reconstructed from a corrupt length field without
// risking silently mis-parsing everything after it.

// stateRec is one boundary-scanned record awaiting decode.
type stateRec struct {
	file  string // file base name, for error formatting
	rec   int    // 1-based record ordinal within its file
	pos   int    // byte offset of the record within its file
	data  []byte // raw bytes: a whole frame, or a JSON line without its newline
	frame bool   // binary frame vs JSON line
	torn  bool   // tolerated torn tail: errors drop the record instead of poisoning
	err   error  // boundary-scan error: the record cannot be framed
}

// errAt formats a record-scoped error: binary records carry their byte
// offset (their CRC makes the position meaningful), JSON records do
// not.
func errAt(r *stateRec, err error) error {
	if r.frame {
		return fmt.Errorf("server: %s record %d (offset %d): %w", r.file, r.rec, r.pos, err)
	}
	return fmt.Errorf("server: %s record %d: %w", r.file, r.rec, err)
}

// scanStats describes one scanState pass.
type scanStats struct {
	files int   // state files present
	bytes int64 // bytes read
	// valid is the length of the active journal's valid prefix: every
	// byte through its last whole record, separators included.
	valid int64
}

// scanState is the boundary scanner: it reads dir's state files in
// replay order (StateFiles) and splits each into records without
// decoding anything — protocol.FrameLen reads just the magic byte and
// length prefix of a binary frame, JSON lines end at their newline. fn
// sees every record in (file, offset) order; the records borrow the
// file buffers, which are immutable and garbage-collected normally, so
// they stay valid if retained. The scan stops at the first error fn
// returns, and after a record whose err is set — a frame that cannot be
// bounded leaves nothing after it trustworthy, so later records and
// files are never scanned.
func scanState(dir string, fn func(r *stateRec) error) (scanStats, error) {
	var st scanStats
	files, err := StateFiles(dir)
	if err != nil {
		return st, err
	}
	for i, path := range files {
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return st, err
		}
		st.files++
		st.bytes += int64(len(data))
		active := i == len(files)-1
		base := filepath.Base(path)
		rec, pos, valid := 0, 0, 0
		for pos < len(data) {
			switch data[pos] {
			case '\n', '\r', ' ', '\t':
				pos++ // blank separators between JSON lines
				valid = pos
				continue
			}
			rec++
			r := stateRec{file: base, rec: rec, pos: pos, frame: data[pos] == protocol.FrameMagic}
			if r.frame {
				n, err := protocol.FrameLen(data[pos:])
				if active && errors.Is(err, protocol.ErrShortFrame) {
					break // torn tail: crash mid-append
				}
				if err != nil {
					r.err = err
					return st, fn(&r)
				}
				r.data = data[pos : pos+n]
				pos += n
				valid = pos
			} else if nl := bytes.IndexByte(data[pos:], '\n'); nl >= 0 {
				r.data = data[pos : pos+nl]
				pos += nl + 1
				valid = pos
			} else {
				r.data, r.torn = data[pos:], active
				pos = len(data)
			}
			if err := fn(&r); err != nil {
				return st, err
			}
		}
		if active {
			st.valid = int64(valid)
		}
	}
	return st, nil
}

// decodeOp is the record decoder: it parses one record into its op —
// frame CRC and fields, or JSON unmarshal — and checks everything about
// it that needs no other record: the op kind, the meta/jmeta format
// version, and the fields its kind requires. Checks that depend on
// replayed state (registration before upload, (id, seq) dedup) and the
// payload decode are the caller's. f is scratch; the op's payload
// borrows the record's bytes, not f's.
func decodeOp(r *stateRec, f *protocol.Frame) (journalOp, error) {
	var op journalOp
	if r.err != nil {
		return op, r.err
	}
	if r.frame {
		if _, err := protocol.DecodeFrame(r.data, f); err != nil {
			return op, err
		}
		switch f.Type {
		case protocol.TypeJournalMeta:
			op = journalOp{Op: opJournalMeta, Ver: f.Ver}
		case protocol.TypeResults:
			op = journalOp{Op: opResults, ID: string(f.ClientID), Seq: f.Seq, Payload: borrowString(f.Payload)}
		default:
			return op, fmt.Errorf("unexpected %q frame in journal", f.Type)
		}
	} else if err := json.Unmarshal(r.data, &op); err != nil {
		return op, err
	}
	switch op.Op {
	case opMeta:
		if op.Ver != stateVersion {
			return op, fmt.Errorf("unsupported state version %d", op.Ver)
		}
	case opJournalMeta:
		// A replica journal can carry several headers (one per bootstrap
		// segment shipped after a primary restart); each just re-declares
		// the format.
		if op.Ver != journalFormatVersion {
			return op, fmt.Errorf("unsupported journal format version %d", op.Ver)
		}
	case opClient:
		if op.ID == "" {
			return op, fmt.Errorf("client op without id")
		}
		if op.Snapshot == nil {
			return op, fmt.Errorf("client op without snapshot")
		}
	case opTestcases, opResults:
	default:
		return op, fmt.Errorf("unknown op %q", op.Op)
	}
	return op, nil
}

// borrowString returns a string view of b without copying. Safe here
// because every caller passes views of an immutable, GC-managed file
// buffer.
func borrowString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Exported op-kind names for StateOp.Kind (the on-disk op tags).
const (
	OpKindClient  = opClient
	OpKindResults = opResults
)

// StateOp is the exported view of one decoded journal or snapshot op,
// for readers of state files that are not a server — the cluster merge
// walks per-node journals through it.
type StateOp struct {
	// Kind is the op tag: OpKindClient, OpKindResults, or one of the
	// format and testcase tags a merge has no use for.
	Kind string
	// ID is the client id (OpKindClient: the registered id;
	// OpKindResults: the uploading client, empty for a compacted
	// snapshot aggregate).
	ID string
	// LastSeq is the client's highest batch folded into a compacted
	// snapshot (OpKindClient).
	LastSeq uint64
	// Seq is the upload batch sequence number (OpKindResults; 0 for
	// unsequenced or compacted payloads).
	Seq uint64
	// Payload holds text-encoded testcases or run records, still
	// encoded: the caller decodes only what it keeps.
	Payload string
}

// WalkState reads dir's state files in replay order through the reader
// LoadState uses, calling fn for each op as it is scanned. It rejects
// exactly the records replay's decoder rejects and tolerates a torn
// record only at the end of the active journal. Checks that need
// replayed state are fn's; a torn final record fn rejects is dropped,
// as replay drops one whose payload fails to decode.
func WalkState(dir string, fn func(StateOp) error) error {
	var f protocol.Frame
	_, err := scanState(dir, func(r *stateRec) error {
		op, err := decodeOp(r, &f)
		if err == nil {
			err = fn(StateOp{Kind: op.Op, ID: op.ID, LastSeq: op.LastSeq, Seq: op.Seq, Payload: op.Payload})
		}
		if err != nil && !r.torn {
			return errAt(r, err)
		}
		return nil
	})
	return err
}
