package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/query"
	"repro/internal/service"
)

// hitIters is how many times the hot-request microbenchmarks repeat.
const hitIters = 2000

// layerPass replays p's request list in-process through the public functions of each
// layer, in the order the server's estimate path calls them: compile the
// query, build the cache key, acquire the graph, look the trial stream up
// in the cache and, on a miss, pick the plan, draw colorings, count and
// store the run. Each layer is timed around its own call, with spans kept
// in this file, never inside the program. Values are per request of the
// list (a layer a request does not reach adds zero) unless the name says
// per trial or per call. The service is configured, loaded and warmed
// exactly like the sgserve child.
func layerPass(ctx context.Context, p plan) (map[string]float64, error) {
	reqs := p.reqs
	svc := service.New(service.Options{
		Workers: workers, Backend: backend, DefaultRanks: ranks,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer svc.Close()
	for _, g := range p.graphs {
		if _, err := svc.AddGraph(service.GraphSpec{Name: g.Name, PowerLawN: g.PowerLaw, Alpha: g.Alpha, Seed: g.Seed}); err != nil {
			return nil, err
		}
	}
	planned := map[string]bool{}
	for _, r := range p.warm {
		if _, err := svc.Estimate(ctx, serviceRequest(r)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		planned[r.labelKey()] = true
	}
	reg, cache := svc.Registry(), svc.Cache()

	var (
		compile, key, acquire, get, put, draw, count, enum, pick, pickCached time.Duration
		hits, trials, trees, calibrations, pickCachedCalls                   int
		supersteps, totalLoad, tableEntries                                  int64
		imbalance, allocBytes, allocObjs                                     float64
	)
	cpu0 := readMetrics()
	for _, r := range reqs {
		t := time.Now()
		q, err := compileQuery(r)
		compile += time.Since(t)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		sig := service.QuerySignature(q)
		key += time.Since(t)

		t = time.Now()
		h, ok := reg.Acquire(r.Graph)
		if !ok {
			return nil, fmt.Errorf("graph %q not registered", r.Graph)
		}
		g, fp := h.Graph(), h.Fingerprint()
		h.Release()
		acquire += time.Since(t)

		tk := service.TrialKey{Graph: fp, Query: sig, Algorithm: core.DB, Backend: backend, Seed: r.Seed, Ranks: ranks}
		t = time.Now()
		counts, found := cache.Counts(tk, r.Trials)
		hit := found && len(counts) >= r.Trials
		if hit {
			_, hit = cache.Get(tk, r.Trials)
		}
		get += time.Since(t)
		if hit {
			hits++
			continue
		}

		if !planned[r.labelKey()] {
			t = time.Now()
			ts, err := decomp.Enumerate(q)
			enum += time.Since(t)
			if err != nil {
				return nil, err
			}
			trees += len(ts)
			if len(ts) > 1 {
				calibrations += min(len(ts), 64) // PickPlan prices at most 64 trees
			}
			t = time.Now()
			_, err = core.PickPlan(q)
			pick += time.Since(t)
			if err != nil {
				return nil, err
			}
			planned[r.labelKey()] = true
		}
		t = time.Now()
		tree, err := core.PickPlan(q)
		pickCached += time.Since(t)
		pickCachedCalls++
		if err != nil {
			return nil, err
		}

		rng := rand.New(rand.NewSource(r.Seed))
		run := service.TrialRun{}
		for i := 0; i < r.Trials; i++ {
			t = time.Now()
			colors := coloring.Random(g.N(), q.K, rng)
			draw += time.Since(t)
			m0 := readMetrics()
			t = time.Now()
			c, st, err := core.CountColorful(g, q, colors, core.Options{Algorithm: core.DB, Backend: backend, Workers: ranks, Plan: tree})
			count += time.Since(t)
			m1 := readMetrics()
			if err != nil {
				return nil, err
			}
			allocBytes += m1.allocBytes - m0.allocBytes
			allocObjs += m1.allocObjs - m0.allocObjs
			trials++
			supersteps += st.Supersteps
			totalLoad += st.TotalLoad
			tableEntries += st.TableEntries
			if st.AvgLoad > 0 {
				imbalance += float64(st.MaxLoad) / st.AvgLoad
			}
			run.Counts = append(run.Counts, c)
			run.Stats = append(run.Stats, st)
		}
		t = time.Now()
		cache.Put(tk, run)
		put += time.Since(t)
	}
	cpu1 := readMetrics()

	n := float64(len(reqs))
	perReq := func(d time.Duration, unit time.Duration) float64 { return float64(d) / float64(unit) / n }
	perTrial := func(x float64) float64 {
		if trials == 0 {
			return 0
		}
		return x / float64(trials)
	}
	m := map[string]float64{
		"query.compile_us":          perReq(compile, time.Microsecond),
		"cache.key_us":              perReq(key, time.Microsecond),
		"registry.acquire_us":       perReq(acquire, time.Microsecond),
		"cache.get_us":              perReq(get, time.Microsecond),
		"cache.put_us":              perReq(put, time.Microsecond),
		"cache.hit_frac":            float64(hits) / n,
		"coloring.draw_us":          perReq(draw, time.Microsecond),
		"solver.count_ms":           perReq(count, time.Millisecond),
		"solver.supersteps":         perTrial(float64(supersteps)),
		"solver.total_load":         perTrial(float64(totalLoad)),
		"solver.table_entries":      perTrial(float64(tableEntries)),
		"solver.load_imbalance":     perTrial(imbalance),
		"solver.alloc_mb_per_trial": perTrial(allocBytes) / (1 << 20),
		"solver.allocs_per_trial":   perTrial(allocObjs),
		"decomp.enumerate_ms":       perReq(enum, time.Millisecond),
		"decomp.trees":              float64(trees) / n,
		"plan.pick_ms":              perReq(pick, time.Millisecond),
		"plan.calibrations":         float64(calibrations) / n,
		"plan.pick_cached_us":       0,
		"runtime.gc_cpu_frac":       0,
	}
	if pickCachedCalls > 0 {
		m["plan.pick_cached_us"] = float64(pickCached) / float64(time.Microsecond) / float64(pickCachedCalls)
	}
	if busy := cpu1.busy - cpu0.busy; busy > 0 {
		m["runtime.gc_cpu_frac"] = (cpu1.gc - cpu0.gc) / busy
	}

	// The hot-request microbenchmarks: reqs[0] is cached by now on every
	// workload (a miss stored its run above).
	hot := serviceRequest(reqs[0])
	us, allocs, err := perCall(func() error {
		res, err := svc.Estimate(ctx, hot)
		if err == nil && !res.Cached {
			err = fmt.Errorf("hot request missed the cache")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	m["service.hit_us"], m["service.hit_allocs"] = us, allocs
	handler := svc.Handler()
	us, allocs, err = perCall(func() error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(reqs[0].body)))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "HIT" {
			return fmt.Errorf("hot handler request: status %d X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["http.handler_us"], m["http.handler_allocs"] = us, allocs
	return m, nil
}

func serviceRequest(r request) service.EstimateRequest {
	return service.EstimateRequest{
		Graph: r.Graph, Query: r.Query, QueryEdges: r.QueryEdges, QueryName: r.QueryName,
		Trials: r.Trials, Seed: r.Seed,
	}
}

// compileQuery builds the request's query the way the service does.
func compileQuery(r request) (*query.Graph, error) {
	if r.QueryEdges == nil {
		return query.ByName(r.Query)
	}
	return query.FromEdgesChecked(r.QueryName, r.QueryEdges, 15)
}

// perCall runs f hitIters times and returns its mean wall time in
// microseconds and mean heap allocations.
func perCall(f func() error) (us, allocs float64, err error) {
	if err := f(); err != nil { // first call outside the measurement
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	for i := 0; i < hitIters; i++ {
		if err := f(); err != nil {
			return 0, 0, err
		}
	}
	d := time.Since(t)
	runtime.ReadMemStats(&after)
	return float64(d) / float64(time.Microsecond) / hitIters, float64(after.Mallocs-before.Mallocs) / hitIters, nil
}

// runtimeSample is the slice of runtime/metrics the ledger reads.
type runtimeSample struct {
	allocBytes, allocObjs float64 // cumulative heap allocations
	gc, busy              float64 // GC CPU and non-idle CPU, seconds
}

var metricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readMetrics() runtimeSample {
	s := make([]metrics.Sample, len(metricNames))
	for i, name := range metricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: v(0), allocObjs: v(1), gc: v(2), busy: v(3) - v(4)}
}
