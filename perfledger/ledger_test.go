package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/query"
	"repro/internal/service"
)

// benchmarkFile is the part of BENCHMARK.json the self-test holds the
// code to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmark(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, perfledger has %v", names, ours)
	}
	for _, c := range []struct {
		listed []benchMetric
		units  map[string]string
	}{{f.EndToEnd, endToEnd}, {f.PerLayer, perLayer}} {
		if len(c.listed) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, perfledger reports %d", len(c.listed), len(c.units))
		}
		for _, m := range c.listed {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, perfledger unit %q (reported: %v)", m.Name, m.Unit, u, ok)
			}
		}
	}
}

// TestWorkloadsAtTinySizes runs every workload end to end, untraced and
// traced, against a real sgserve child on tiny inputs.
func TestWorkloadsAtTinySizes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sgserve and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "sgserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/sgserve").CombinedOutput(); err != nil {
		t.Fatalf("build sgserve: %v\n%s", err, out)
	}
	f := readBenchmark(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				sz := sizes{graphN: 300, hotSeeds: 2, setups: 2, scale: 24 / w.rate}
				res, err := run(context.Background(), config{
					workload: w.name, seed: 7, seconds: 1, trace: trace,
					sgserve: bin, workdir: t.TempDir(), sz: sz,
				}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				// The run fails operations whose X-Cache betrays the
				// workload's hit/miss character, so Correct covers it.
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
				}
				want := f.EndToEnd
				if trace {
					want = f.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
				}
				if !trace {
					for _, name := range []string{"throughput_rps", "latency_p50_ms", "setup_s", "success_rate"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
					return
				}
				v := func(name string) float64 { return res.Metrics[name].Value }
				if w.hot {
					if v("cache.hit_frac") != 1 || v("service.solver_runs") != 0 || v("solver.count_ms") != 0 {
						t.Errorf("hit-heavy did solver work: hit_frac %v, server runs %v, count_ms %v",
							v("cache.hit_frac"), v("service.solver_runs"), v("solver.count_ms"))
					}
				} else if v("cache.hit_frac") != 0 || v("service.solver_runs") != 1 || v("solver.count_ms") <= 0 {
					t.Errorf("%s: hit_frac %v, server runs per request %v, count_ms %v; want 0, 1, > 0",
						w.name, v("cache.hit_frac"), v("service.solver_runs"), v("solver.count_ms"))
				}
				if (v("plan.calibrations") > 0) != w.relabel {
					t.Errorf("%s: plan.calibrations %v per request", w.name, v("plan.calibrations"))
				}
			})
		}
	}
}

// TestColdLabelingsNeverRepeat checks that no two cold-query requests of
// one server process share a cache key or a plan-cache key.
func TestColdLabelingsNeverRepeat(t *testing.T) {
	w, err := workloadByName("cold-query")
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(w, 3, 1, sizes{graphN: 300, scale: 2000 / w.rate})
	if err != nil {
		t.Fatal(err)
	}
	sigs, labels := map[string]int{}, map[string]int{}
	for i, r := range append(append([]request(nil), p.warm...), p.reqs...) {
		q, err := query.FromEdgesChecked(r.QueryName, r.QueryEdges, 15)
		if err != nil {
			t.Fatal(err)
		}
		if j, ok := sigs[service.QuerySignature(q)]; ok {
			t.Fatalf("requests %d and %d share query signature %s", j, i, service.QuerySignature(q))
		}
		sigs[service.QuerySignature(q)] = i
		if j, ok := labels[r.labelKey()]; ok {
			t.Fatalf("requests %d and %d share labeling %s", j, i, r.labelKey())
		}
		labels[r.labelKey()] = i
	}
	if len(sigs) != len(p.warm)+len(p.reqs) || len(p.reqs) < 2000 {
		t.Fatalf("%d distinct signatures over %d requests", len(sigs), len(p.warm)+len(p.reqs))
	}
}

// TestPlanIsSeededPrefix checks that inputs are a pure function of the
// seed, that a shorter run's list is a prefix of a longer one's (the
// traced pass replays the workload's own list), and that no two
// non-hot requests share a cache key.
func TestPlanIsSeededPrefix(t *testing.T) {
	for _, w := range workloads {
		sz := sizes{graphN: 300, hotSeeds: 2, scale: 90 / w.rate}
		a, errA := newPlan(w, 11, 1, sz)
		b, errB := newPlan(w, 11, 1, sz)
		sz.scale /= 3
		short, errS := newPlan(w, 11, 1, sz)
		if err := errors.Join(errA, errB, errS); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different inputs", w.name)
		}
		if !reflect.DeepEqual(short.reqs, a.reqs[:len(short.reqs)]) || !reflect.DeepEqual(short.warm, a.warm) {
			t.Errorf("%s: the shorter list is not a prefix of the longer one", w.name)
		}
		if w.hot {
			continue
		}
		keys := map[string]bool{}
		for _, r := range append(append([]request(nil), a.warm...), a.reqs...) {
			k := fmt.Sprint(r.Graph, r.labelKey(), r.Seed)
			if keys[k] {
				t.Errorf("%s: cache key %s repeats", w.name, k)
			}
			keys[k] = true
		}
	}
}
