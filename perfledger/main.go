// Command perfledger is the repository's benchmark: the end-to-end and
// per-layer performance ledger of sgserve. run.sh builds sgserve and this
// program from the checkout and runs one pass:
//
//	bash perfledger/run.sh --workload miss-heavy --seed 1 --seconds 15 --trace 0
//
// Every measured pass starts a fresh sgserve child, registers seeded
// Chung-Lu power-law graphs (§9.2 model, α = 1.5, n = 2000), warms it,
// and replays a fixed seeded request list over loopback HTTP to
// completion with two closed-loop clients. --seconds sizes that list
// (seconds × the workload's nominal rate); the run does the same work
// however fast the host is on the day.
//
// With --trace 0 the last output line carries the end-to-end metrics.
// With --trace 1 it carries the per-layer ledger instead, from a traced
// pass: the same list replayed through the jobs API with each job's
// trace fetched, and an in-process replay timing each layer's public
// functions on the same inputs (layers.go). Either way sampled replies
// are recomputed in-process and must match bit for bit, and every reply
// must carry the workload's X-Cache character; violations are failed
// operations. BENCHMARK.json at the repository root lists the workloads,
// the metrics and which layer moves which end-to-end number.
//
// The self-test runs every workload at tiny sizes:
//
//	cd perfledger && go test ./...
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sgserve  string // sgserve binary
	workdir  string // temporary files, inside the checkout
	sz       sizes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer give every reported metric its unit; they match
// BENCHMARK.json (the self-test checks).
var endToEnd = map[string]string{
	"throughput_rps": "1/s",
	"latency_p50_ms": "ms",
	"latency_p90_ms": "ms",
	"cpu_ms_per_req": "ms",
	"peak_rss_mb":    "MB",
	"setup_s":        "s",
	"success_rate":   "ratio",
}

var perLayer = map[string]string{
	"http.overhead_ms":          "ms",
	"http.handler_us":           "us",
	"http.handler_allocs":       "count",
	"service.elapsed_ms":        "ms",
	"service.solver_runs":       "count",
	"service.hit_us":            "us",
	"service.hit_allocs":        "count",
	"query.compile_us":          "us",
	"cache.key_us":              "us",
	"registry.acquire_us":       "us",
	"cache.get_us":              "us",
	"cache.put_us":              "us",
	"cache.hit_frac":            "ratio",
	"jobs.queue_wait_ms":        "ms",
	"jobs.replay_ms":            "ms",
	"coloring.draw_us":          "us",
	"solver.count_ms":           "ms",
	"solver.supersteps":         "count",
	"solver.total_load":         "count",
	"solver.table_entries":      "count",
	"solver.load_imbalance":     "ratio",
	"solver.pathJoin_ms":        "ms",
	"solver.cycleJoin_ms":       "ms",
	"solver.leafJoin_ms":        "ms",
	"solver.tableMerge_ms":      "ms",
	"solver.alloc_mb_per_trial": "MB",
	"solver.allocs_per_trial":   "count",
	"runtime.gc_cpu_frac":       "ratio",
	"decomp.enumerate_ms":       "ms",
	"decomp.trees":              "count",
	"plan.pick_ms":              "ms",
	"plan.calibrations":         "count",
	"plan.pick_cached_us":       "us",
	"trace.overhead_frac":       "ratio",
}

// traceShare is the fraction of the request list a traced run replays:
// it replays it twice over HTTP and once in-process.
const traceShare = 1.0 / 3

func main() {
	cfg := config{sz: fullSizes}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: hit-heavy, miss-heavy or cold-query")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 15, "sizes the request list: seconds × the workload's nominal rate")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: the per-layer ledger")
	flag.StringVar(&cfg.sgserve, "sgserve", "", "sgserve binary")
	flag.StringVar(&cfg.workdir, "workdir", ".", "directory for the servers' temporary files")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 || cfg.seconds < 1 || cfg.sgserve == "" {
		fmt.Fprintln(os.Stderr, "perfledger: need --workload, --seconds ≥ 1, --trace 0|1 and -sgserve")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg, os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfledger:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfledger:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark run; it writes a human-readable summary to
// log and returns the result line.
func run(ctx context.Context, cfg config, log io.Writer) (result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		return runTraced(ctx, cfg, w, log)
	}
	p, err := newPlan(w, cfg.seed, cfg.seconds, cfg.sz)
	if err != nil {
		return result{}, err
	}
	// The list is replayed in consecutive segments, each on its own
	// freshly set-up server: setup_s and peak_rss_mb are medians over the
	// servers, so one slow start or one unlucky GC peak does not decide
	// them, and the other metrics pool every request of the list.
	var (
		or                 = newOracle()
		lat, setups, peaks []float64
		segRates           []string
		wall               time.Duration
		cpu                float64
		failed             int
		errs               []string
	)
	for i := 0; i < cfg.sz.setups; i++ {
		seg := p.segment(i, cfg.sz.setups)
		hc := newClient()
		t := time.Now()
		srv, warm, err := startServer(ctx, cfg.sgserve, cfg.workdir, p, hc)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t).Seconds())
		cpu0, err0 := srv.cpuMs()
		ps := replay(ctx, hc, srv.base, seg.reqs, sampleSet(seg.sample), false)
		cpu1, err1 := srv.cpuMs()
		peak, err2 := srv.peakRSSMB()
		srv.stop()
		hc.CloseIdleConnections()
		if err := errors.Join(ctx.Err(), err0, err1, err2); err != nil {
			return result{}, err
		}
		f, e := check(seg, warm, ps, or)
		failed += f
		errs = append(errs, e...)
		lat = append(lat, latenciesMs(ps)...)
		peaks = append(peaks, peak)
		wall += ps.wall
		cpu += cpu1 - cpu0
		segRates = append(segRates, fmt.Sprintf("%.4g", float64(len(ps.out))/ps.wall.Seconds()))
	}
	n := len(lat)
	p50, p90 := quantile(lat, 0.5), quantile(lat, 0.9)
	fmt.Fprintf(log, "perfledger %s seed=%d: %d requests in %.2fs (segments at %s req/s); p50 %.3fms p90 %.3fms over %d samples (%d beyond p90); setups %s s\n",
		w.name, cfg.seed, n, wall.Seconds(), strings.Join(segRates, ", "), p50, p90, n, n-int(math.Ceil(0.9*float64(n))), roundAll(setups))
	report(log, errs)
	return finish(n, failed, map[string]float64{
		"throughput_rps": float64(n) / wall.Seconds(),
		"latency_p50_ms": p50,
		"latency_p90_ms": p90,
		"cpu_ms_per_req": cpu / float64(n),
		"peak_rss_mb":    quantile(peaks, 0.5),
		"setup_s":        quantile(setups, 0.5),
		"success_rate":   1 - float64(failed)/float64(n),
	}, endToEnd), nil
}

// runTraced measures the per-layer ledger on the first traceShare of the
// workload's request list: a plain replay (pass A, for the HTTP overhead
// and the tracing cost's baseline), a replay through the jobs API with
// every job's trace fetched (pass B), and the in-process layer replay.
func runTraced(ctx context.Context, cfg config, w workload, log io.Writer) (result, error) {
	sz := cfg.sz
	sz.scale *= traceShare
	p, err := newPlan(w, cfg.seed, cfg.seconds, sz)
	if err != nil {
		return result{}, err
	}
	var (
		passes [2]pass
		warms  [2][]outcome
		runs   float64
	)
	for i, jobs := range []bool{false, true} {
		hc := newClient()
		srv, warm, err := startServer(ctx, cfg.sgserve, cfg.workdir, p, hc)
		if err != nil {
			return result{}, err
		}
		r0, err0 := srv.solverRuns(ctx, hc)
		passes[i] = replay(ctx, hc, srv.base, p.reqs, sampleSet(p.sample), jobs)
		r1, err1 := srv.solverRuns(ctx, hc)
		srv.stop()
		hc.CloseIdleConnections()
		if err := errors.Join(ctx.Err(), err0, err1); err != nil {
			return result{}, err
		}
		warms[i] = warm
		if !jobs {
			runs = r1 - r0
		}
	}
	m, err := layerPass(ctx, p)
	if err != nil {
		return result{}, fmt.Errorf("in-process layer pass: %w", err)
	}
	a, b := passes[0], passes[1]
	n := float64(len(a.out))
	var overhead []float64
	var elapsed float64
	for _, o := range a.out {
		overhead = append(overhead, float64(o.lat)/float64(time.Millisecond)-o.elapsedMs)
		elapsed += o.elapsedMs
	}
	m["http.overhead_ms"] = quantile(overhead, 0.5)
	m["service.elapsed_ms"] = elapsed / n
	m["service.solver_runs"] = runs / n
	phase := func(name string) float64 {
		var sum float64
		for _, o := range b.out {
			sum += o.phases[name]
		}
		return sum / float64(len(b.out))
	}
	m["jobs.queue_wait_ms"] = phase("queueWait")
	m["jobs.replay_ms"] = phase("cacheReplay")
	m["solver.pathJoin_ms"] = phase("pathJoin")
	m["solver.cycleJoin_ms"] = phase("cycleJoin")
	m["solver.leafJoin_ms"] = phase("leafJoin")
	m["solver.tableMerge_ms"] = phase("tableMerge")
	rpsA := n / a.wall.Seconds()
	rpsB := float64(len(b.out)) / b.wall.Seconds()
	m["trace.overhead_frac"] = 1 - rpsB/rpsA

	or := newOracle()
	fa, errsA := check(p, warms[0], a, or)
	fb, errsB := check(p, warms[1], b, or)
	fmt.Fprintf(log, "perfledger %s seed=%d traced: %d requests per pass; plain %.1f req/s, jobs+trace %.1f req/s\n",
		w.name, cfg.seed, len(a.out), rpsA, rpsB)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-26s %14.4f %s\n", k, m[k], perLayer[k])
	}
	report(log, append(errsA, errsB...))
	return finish(len(a.out)+len(b.out), fa+fb, m, perLayer), nil
}

func finish(attempted, failed int, values map[string]float64, units map[string]string) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for name, v := range values {
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	return res
}

func report(log io.Writer, errs []string) {
	for _, e := range errs {
		fmt.Fprintln(log, "  FAILED", e)
	}
}

func sampleSet(idx []int) map[int]bool {
	m := make(map[int]bool, len(idx))
	for _, i := range idx {
		m[i] = true
	}
	return m
}

func latenciesMs(ps pass) []float64 {
	lat := make([]float64, len(ps.out))
	for i, o := range ps.out {
		lat[i] = float64(o.lat) / float64(time.Millisecond)
	}
	return lat
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func roundAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
