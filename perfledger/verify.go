package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	subgraph "repro"
)

// check counts the failed operations of a pass: transport errors,
// non-200 replies, a reply whose X-Cache betrays a change of workload
// character, a hot-set reply whose bytes differ from the warm-up reply
// for its key, and a sampled reply that differs from the estimate
// recomputed in-process. Each failure is described in errs.
func check(p plan, warm []outcome, ps pass, oracle *oracle) (failed int, errs []string) {
	bad := func(i int, format string, args ...any) {
		failed++
		if len(errs) < 10 {
			errs = append(errs, fmt.Sprintf("request %d: ", i)+fmt.Sprintf(format, args...))
		}
	}
	for i, o := range ps.out {
		switch {
		case o.err != nil:
			bad(i, "%v", o.err)
		case o.status != http.StatusOK:
			bad(i, "status %d", o.status)
		case o.cache != p.w.expect:
			bad(i, "X-Cache %q, want %q", o.cache, p.w.expect)
		case p.reqs[i].hot >= 0 && o.sum != warm[p.reqs[i].hot].sum:
			bad(i, "hot-set reply differs from its warm-up reply")
		}
	}
	for _, i := range p.sample {
		o := ps.out[i]
		if o.err != nil || o.status != http.StatusOK {
			continue // already counted
		}
		if err := oracle.verify(p, p.reqs[i], o.body); err != nil {
			bad(i, "%v", err)
		}
	}
	return failed, errs
}

// oracle recomputes estimates in-process with subgraph.Estimate on the
// same graph spec, query, seed and trials as the server.
type oracle struct {
	graphs map[string]*subgraph.Graph
}

func newOracle() *oracle { return &oracle{graphs: map[string]*subgraph.Graph{}} }

func (or *oracle) verify(p plan, r request, body []byte) error {
	g, ok := or.graphs[r.Graph]
	if !ok {
		for _, spec := range p.graphs {
			if spec.Name == r.Graph {
				g = subgraph.GeneratePowerLaw(spec.Name, spec.PowerLaw, spec.Alpha, spec.Seed)
				or.graphs[r.Graph] = g
			}
		}
		if g == nil {
			return fmt.Errorf("unknown graph %q", r.Graph)
		}
	}
	var q *subgraph.Query
	if r.QueryEdges != nil {
		k := 0
		for _, e := range r.QueryEdges {
			k = max(k, e[0]+1, e[1]+1)
		}
		q = subgraph.NewQuery(r.QueryName, k, r.QueryEdges)
	} else {
		var err error
		if q, err = subgraph.QueryByName(r.Query); err != nil {
			return err
		}
	}
	want, err := subgraph.Estimate(g, q, subgraph.EstimateOptions{
		Backend: backend, Workers: ranks, Trials: r.Trials, Seed: r.Seed,
	})
	if err != nil {
		return fmt.Errorf("in-process estimate: %w", err)
	}
	var got subgraph.Estimation
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode estimate: %w", err)
	}
	if !reflect.DeepEqual(stripVolatile(got), stripVolatile(want)) {
		return fmt.Errorf("served estimate %+v differs from in-process %+v", stripVolatile(got), stripVolatile(want))
	}
	return nil
}

// stripVolatile strips what may legitimately differ between two runs of one
// estimate: display names and work-stealing telemetry.
func stripVolatile(e subgraph.Estimation) subgraph.Estimation {
	e.Graph, e.Query = "", ""
	e.Stats.Steals = 0
	if len(e.Stats.Loads) == 0 {
		e.Stats.Loads = nil
	}
	if len(e.Counts) == 0 {
		e.Counts = nil
	}
	return e
}
