package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// specFile is where the benchmark's workloads and metrics are declared, once;
// the program reads units, directions and bounds from it.
const specFile = "BENCHMARK.json"

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile(specFile)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", specFile, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// label attaches the declared units to measured values. Every value must be
// declared and every declared end-to-end metric measured; a declared
// per-layer metric the workload does not exercise reads 0.
func label(values map[string]float64, decl []metricSpec, fillZero bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decl))
	for _, d := range decl {
		v, ok := values[d.Name]
		if !ok && !fillZero {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics not declared in %s: %v", specFile, extra)
	}
	return out, nil
}
