package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// invoke runs the benchmark in-process at tiny sizes and returns its result
// line and the digests it printed.
func invoke(t *testing.T, workload string, trace string) (result, []string) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny", "--out", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace %s: last line is not the result: %v", workload, trace, err)
	}
	var digests []string
	for _, l := range lines {
		if d, ok := strings.CutPrefix(l, "digest "); ok {
			digests = append(digests, d)
		}
	}
	return res, digests
}

func checkMetrics(t *testing.T, workload string, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json names %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v (printed: %t), want unit %s", workload, m.Name, got, ok, m.Unit)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, untraced twice and traced
// once: every metric BENCHMARK.json names must be printed with its unit,
// every output check must pass, and the same seed must give the same
// digests each time.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			first, d1 := invoke(t, w, "0")
			checkMetrics(t, w, first, spec.EndToEnd)
			_, d2 := invoke(t, w, "0")
			if !slices.Equal(d1, d2) || len(d1) != 1 {
				t.Errorf("untraced digests differ across invocations: %v vs %v", d1, d2)
			}
			traced, dt := invoke(t, w, "1")
			checkMetrics(t, w, traced, spec.PerLayer)
			if len(d1) == 1 && !slices.Contains(dt, d1[0]) {
				t.Errorf("traced invocation digests %v miss the untraced digest %s", dt, d1[0])
			}
		})
	}
}
