package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestManifestMatchesRegistry keeps BENCHMARK.json and the runner's registry
// one list.
func TestManifestMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(b, &mf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mf.Workloads, workloads) {
		t.Errorf("workloads differ:\n json %v\n code %v", mf.Workloads, workloads)
	}
	var e2e, layer []metricDef
	for _, m := range mf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range mf.PerLayer {
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", layer, perLayer)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics; the manifest allows 128", len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every in-process workload, untraced and traced, in the
// tiny configuration and checks that each run is correct and emits exactly
// the registry's names. The server workloads need a child process and are
// left to the benchmark itself.
func TestSmoke(t *testing.T) {
	for _, w := range workloads[:3] {
		for _, traced := range []bool{false, true} {
			res, err := runOne(runOpts{workload: w.Name, seed: 1, seconds: 0.02, trace: traced,
				smoke: true, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, registry has %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.Name, traced, d.Name, v.Unit, d.Unit)
				}
			}
			if !traced {
				for _, d := range defs {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}
