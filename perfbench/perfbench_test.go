package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// runTiny runs one workload with a one-second window and returns its
// standard output and parsed result line.
func runTiny(t *testing.T, name string, seed, trace int) (string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"--workload", name, "--seed", strconv.Itoa(seed), "--seconds", "1",
		"--trace", strconv.Itoa(trace), "--workdir", t.TempDir(),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
	}
	return stdout.String(), res
}

// digestOf returns the "digest" line of a run's output.
func digestOf(out string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "digest ") {
			return l
		}
	}
	return ""
}

// TestSmoke runs every workload of BENCHMARK.json at tiny size, untraced
// and traced, and checks that each registered metric is printed with its
// unit, that the output checks passed, and that two runs with the same
// seed agree on the digest of their fixed-seed outputs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("prepares the full corpora; takes a few minutes")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			digests := map[int]string{}
			for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
				out, res := runTiny(t, w.Name, 7, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%d: %d metrics printed, BENCHMARK.json lists %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%d: metric %s printed as %+v (present %v), want unit %q", trace, m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(out, m.Name+" ") {
						t.Errorf("trace=%d: metric %s missing from the readable lines", trace, m.Name)
					}
				}
				digests[trace] = digestOf(out)
			}
			// Both runs share the seed. A sampling run's digest covers its
			// set-up's counts and fixed-seed witnesses, which must not
			// depend on tracing; a cold run's covers re-counted formulas,
			// so it is compared against a second untraced run.
			if workloadMust(t, w.Name).n == 0 {
				out, _ := runTiny(t, w.Name, 7, 0)
				digests[1] = digestOf(out)
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Errorf("same seed, different digests: %q vs %q", digests[0], digests[1])
			}
		})
	}
}

func workloadMust(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
