package main

import (
	"encoding/json"
	"os"
	"testing"

	"optima/internal/dnn"
)

func newTensor(n int) *dnn.Tensor {
	x := dnn.NewTensor(n, 1, 1, 1)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	return x
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the program prints in step: same workloads, same names, same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i := range b.Workloads {
		if i < len(workloads) && b.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []entry, names, units []string) {
		if len(listed) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(listed), len(names))
		}
		for i := range listed {
			if i < len(names) && (listed[i].Name != names[i] || listed[i].Unit != units[i]) {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, listed[i].Name, listed[i].Unit, names[i], units[i])
			}
		}
	}
	var names, units []string
	for _, m := range endToEnd {
		names, units = append(names, m.name), append(units, m.unit)
	}
	check("end_to_end", b.EndToEnd, names, units)
	names, units = nil, nil
	for _, m := range perLayer {
		names, units = append(names, m.name), append(units, m.unit)
	}
	check("per_layer", b.PerLayer, names, units)
}
