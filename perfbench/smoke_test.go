package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []namedUnit `json:"end_to_end"`
	PerLayer []namedUnit `json:"per_layer"`
}

type namedUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at minimal size, untraced and traced,
// and checks that each metric BENCHMARK.json names is printed with its
// unit, both as a text line and in the JSON summary, and that every
// check passed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		for trace, want := range [][]namedUnit{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace%d", wl.Name, trace), func(t *testing.T) {
				var out, errs bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "7", "--seconds", "0.5", "--trace", fmt.Sprint(trace),
					"--smoke", "--build-dir", t.TempDir()}
				if code := run(args, &out, &errs); code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errs.String(), out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var sum summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("last line is not the JSON summary: %v", err)
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Fatalf("summary correct=%v failed=%d attempted=%d", sum.Correct, sum.Failed, sum.Attempted)
				}
				if len(sum.Metrics) != len(want) {
					t.Errorf("summary has %d metrics, BENCHMARK.json names %d", len(sum.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := sum.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("summary: %s = %+v, want unit %q", m.Name, got, m.Unit)
					}
					line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(m.Name) + ` +\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
					if !line.MatchString(out.String()) {
						t.Errorf("no text line for %s in %s", m.Name, m.Unit)
					}
				}
			})
		}
	}
}
