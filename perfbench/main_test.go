package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at tiny size, untraced and
// traced, through the command's own entry point, and checks the result
// line: correct, something attempted, and exactly the declared metrics.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs start clusters and write journals")
	}
	t.Setenv("TMPDIR", t.TempDir())
	// Traced runs write their spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	type smoke struct{ workload, seed, trace string }
	var runs []smoke
	for _, w := range workloads {
		runs = append(runs, smoke{w.name, "7", "0"}, smoke{w.name, "7", "1"})
	}
	// Seed 404 puts none of the 16 hosts on one node, which then
	// journals nothing and has no replica to promote.
	runs = append(runs, smoke{"recovery", "404", "0"})
	for _, r := range runs {
		w, trace := r.workload, r.trace
		t.Run(w+"/seed="+r.seed+"/trace="+trace, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w, "--seed", r.seed, "--seconds", "0.3",
				"--trace", trace, "--size", "tiny"}
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("result correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
				}
			}
		})
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "study", "--trace", "2"},
		{"--workload", "study", "--seconds", "0"},
	} {
		if err := run(args, &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the workloads and metrics this command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for _, w := range spec.Workloads {
		gotW = append(gotW, w.Name)
	}
	for _, w := range workloads {
		wantW = append(wantW, w.name)
	}
	sameSet(t, "workloads", gotW, wantW)
	pairs := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.name+" "+d.unit)
		}
		return out
	}
	var e2e, layer []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	sameSet(t, "end_to_end", e2e, pairs(endToEnd))
	sameSet(t, "per_layer", layer, pairs(perLayer))
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json %s = %v, command prints %v", what, got, want)
	}
}
