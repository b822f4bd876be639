package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests compare
// against.
type benchmarkSpec struct {
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

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkSpec
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// namedMetrics are the end-to-end metrics each workload reports, with
// their units: every one applies to every workload except the
// per-request-kind latencies.
func namedMetrics(workload string) map[string]string {
	m := map[string]string{
		"setup_s": "s", "throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
		"error_rate": "ratio", "alloc_kb_per_req": "KiB", "peak_rss_mb": "MiB",
	}
	if workload != "check-quota" {
		m["analyze.latency_p50_ms"], m["analyze.latency_p99_ms"] = "ms", "ms"
	}
	if workload != "analyze-n6" {
		m["check.latency_p50_ms"], m["check.latency_p99_ms"] = "ms", "ms"
	}
	if workload == "check-quota" {
		m["job.latency_p50_ms"] = "ms"
	}
	return m
}

// runTiny plays a workload on tiny streams for the minimum rounds and
// returns its printed report.
func runTiny(t *testing.T, workload string, traced bool) (metrics map[string][2]string, last map[string]json.RawMessage) {
	t.Helper()
	res, err := runWorkload(workload, 1, 0, traced, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	metrics = make(map[string][2]string)
	for _, l := range lines {
		if f := strings.Fields(l); len(f) >= 4 && f[0] == "metric" {
			metrics[f[1]] = [2]string{f[2], f[3]}
		}
		if strings.HasPrefix(l, "problem ") {
			t.Error(l)
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	if string(last["correct"]) != "true" || string(last["failed"]) != "0" {
		t.Errorf("correct=%s failed=%s", last["correct"], last["failed"])
	}
	return metrics, last
}

// resultMetrics decodes the result line's metrics.
func resultMetrics(t *testing.T, last map[string]json.RawMessage) map[string]metric {
	t.Helper()
	var out map[string]metric
	if err := json.Unmarshal(last["metrics"], &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSmokeEndToEnd(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			metrics, last := runTiny(t, w.Name, false)
			for name, unit := range namedMetrics(w.Name) {
				got, ok := metrics[name]
				if !ok {
					t.Errorf("metric %s not printed", name)
					continue
				}
				if got[1] != unit {
					t.Errorf("metric %s printed in %s, want %s", name, got[1], unit)
				}
			}
			if v, err := strconv.ParseFloat(metrics["error_rate"][0], 64); err != nil || v != 0 {
				t.Errorf("error_rate = %q, want 0", metrics["error_rate"][0])
			}
			out := resultMetrics(t, last)
			if len(out) != len(spec.EndToEnd) {
				t.Errorf("result line has %d metrics, BENCHMARK.json names %d", len(out), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := out[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("result metric %s = %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	spec := loadSpec(t)
	_, last := runTiny(t, "check-quota", true)
	out := resultMetrics(t, last)
	if len(out) != len(spec.PerLayer) {
		t.Errorf("traced result line has %d metrics, BENCHMARK.json names %d", len(out), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if got, ok := out[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer metric %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
	for _, name := range []string{"graph.request_share", "graph.walk_nodes_per_check", "jobs.run_ms"} {
		if out[name].Value <= 0 {
			t.Errorf("%s = %v on check-quota, want > 0", name, out[name].Value)
		}
	}
	if out["decider.runs"].Value != 0 {
		t.Errorf("decider.runs = %v on check-quota, want 0", out["decider.runs"].Value)
	}
}

// TestDesignCoversBenchmark keeps BENCHMARK.json, design.json and the
// code's metric tables in step.
func TestDesignCoversBenchmark(t *testing.T) {
	spec := loadSpec(t)
	raw, err := os.ReadFile("design.json")
	if err != nil {
		t.Fatal(err)
	}
	var design struct {
		Workloads map[string]string `json:"workloads"`
		PerLayer  map[string]struct {
			Layer string   `json:"layer"`
			Moves []string `json:"moves"`
			On    []string `json:"on"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &design); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if design.Workloads[w.Name] == "" {
			t.Errorf("design.json has no why for workload %s", w.Name)
		}
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if want := contractMetrics(false); !slices.Equal(e2e, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, code reports %v", e2e, want)
	}
	if len(spec.PerLayer) != len(layerUnits) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, code %d", len(spec.PerLayer), len(layerUnits))
	}
	for i, m := range spec.PerLayer {
		if lu := layerUnits[i]; lu.name != m.Name || lu.unit != m.Unit {
			t.Errorf("per_layer[%d] = %s %s, code has %s %s", i, m.Name, m.Unit, lu.name, lu.unit)
		}
		if _, ok := design.PerLayer[m.Name]; !ok {
			t.Errorf("design.json has no prediction for %s", m.Name)
		}
	}
}
