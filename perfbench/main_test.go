package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at tiny sizes and returns the exit code, the
// parsed result line and the standard error.
func runTiny(t *testing.T, workload, trace, goldenDir string) (int, resultLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
		"--tiny", "--golden-dir", goldenDir, "--state-dir", t.TempDir()}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s --trace %s: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s",
			workload, trace, err, stdout.String(), stderr.String())
	}
	return code, res, stderr.String()
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEveryMetricEmitted runs every workload in both modes and checks the
// result line carries exactly the metrics BENCHMARK.json names, with
// their units, and that the run is correct.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmark(t)
	golden := filepath.Join("..", "internal", "experiments", "testdata")
	for _, w := range b.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				code, res, stderr := runTiny(t, w.Name, trace, golden)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, %d of %d failed:\n%s", code, res.Correct, res.Failed, res.Attempted, stderr)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not in BENCHMARK.json", name)
					}
				}
				if trace == "0" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestCorruptedGoldenTripsGate flips one byte of a golden render and
// checks the run fails its correctness gate instead of reporting.
func TestCorruptedGoldenTripsGate(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the golden artifacts")
	}
	dir := t.TempDir()
	for _, name := range []string{"fig8.golden", "table5.golden"} {
		data, err := os.ReadFile(filepath.Join("..", "internal", "experiments", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "fig8.golden" {
			data[len(data)/2] ^= 1
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, res, stderr := runTiny(t, "regen-cold", "0", dir)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted golden passed: exit %d, correct %v, failed %d", code, res.Correct, res.Failed)
	}
	if !strings.Contains(stderr, "fig8 render differs from fig8.golden") {
		t.Fatalf("stderr does not name the corrupted golden:\n%s", stderr)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

// TestSelfTime checks a parent's self time excludes the union of its
// children, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	add := func(id, parent int64, name string, start, end time.Duration) {
		tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end)})
	}
	add(1, 0, "root", 0, 100)
	add(2, 1, "child", 10, 40)
	add(3, 1, "child", 30, 60)
	add(4, 1, "child", 90, 120)
	self := tr.selfTimes()
	if got := self["root"]; got != 40 {
		t.Errorf("root self = %v, want 40ns", got)
	}
	if got := self["child"]; got != 90 {
		t.Errorf("child self = %v, want 90ns", got)
	}
}
