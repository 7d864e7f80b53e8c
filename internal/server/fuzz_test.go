package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"uucs/internal/core"
)

// FuzzPersistReload throws arbitrary bytes at the journal loader — the
// file a crashed server leaves behind is exactly "whatever made it to
// disk", so reload must never panic, must reject what it cannot
// explain, and anything it does accept must survive a
// save-and-reload round trip unchanged and be accepted by the cluster
// merge's walker too.
func FuzzPersistReload(f *testing.F) {
	seeds := []string{
		"",
		"\n",
		`{"op":"meta","ver":2}` + "\n",
		`{"op":"meta","ver":99}` + "\n",
		`{"op":"client","id":"uucs-1","nonce":"n-1","snapshot":{"hostname":"h","os":"winxp","cpu_ghz":2,"mem_mb":512,"disk_gb":80},"last_seq":3}` + "\n",
		`{"op":"client","snapshot":{}}` + "\n",
		`{"op":"results","id":"uucs-1","seq":1,"payload":"run tc-1\ntask word\nuser 3\nterm discomfort\noffset 55\nprimary disk\nlevel disk 2.5\nendrun\n"}` + "\n",
		`{"op":"results","payload":"run tc-1\ntask word\nuser 3\nterm discomfort\noffset 55\nprimary disk\nlevel disk 2.5\nendrun\n"}` + "\n",
		`{"op":"tc","payload":"testcase t-1\nduration 20\nblank\nendtestcase\n"}` + "\n",
		`{"op":"bogus"}` + "\n",
		"not json at all\n",
		`{"op":"meta","ver":2}` + "\n" + `{"op":"client","id":"uucs-1","snapshot":{"hostname":"h"},"trunc`, // torn tail
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(1)
		if err := s.LoadState(dir); err != nil {
			return // rejected cleanly
		}
		if err := walkState(dir); err != nil {
			t.Fatalf("LoadState accepted what WalkState rejects: %v", err)
		}
		// Accepted state must round-trip: compact it and reload.
		dir2 := t.TempDir()
		if err := s.SaveState(dir2); err != nil {
			t.Fatalf("loaded state failed to save: %v", err)
		}
		s2 := New(1)
		if err := s2.LoadState(dir2); err != nil {
			t.Fatalf("saved state failed to reload: %v", err)
		}
		if got, want := stateIdentity(t, s2), stateIdentity(t, s); got != want {
			t.Fatalf("round trip changed state:\n got %q\nwant %q", got, want)
		}
	})
}

// stateIdentity flattens a server's state into comparable bytes by
// identity: the encoded run list in order, every client id with its
// lastSeq, and the testcase ids in order.
func stateIdentity(t *testing.T, s *Server) string {
	t.Helper()
	var b strings.Builder
	if err := core.EncodeRuns(&b, s.Results(), true); err != nil {
		t.Fatal(err)
	}
	var clients []string
	for i := range s.shards {
		sh := &s.shards[i]
		for id := range sh.clients {
			clients = append(clients, fmt.Sprintf("client %q %d\n", id, sh.lastSeq[id]))
		}
	}
	sort.Strings(clients)
	b.WriteString(strings.Join(clients, ""))
	for _, tc := range s.testcases {
		fmt.Fprintf(&b, "testcase %q\n", tc.ID)
	}
	return b.String()
}
