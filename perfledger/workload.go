package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/query"
)

// Server and client shape, fixed so every run does the same work on any
// host: two closed-loop clients (the nproc of the 2-core box the sizes
// were tuned on; sgserve's callers each wait for their reply), one job
// worker running two engine ranks, so solver goroutines (workers × ranks)
// never exceed nproc while the parallel engine's batched exchange still
// runs.
const (
	clients    = 2
	workers    = 1
	ranks      = 2
	alpha      = 1.5 // §9.2 power-law exponent of the data graphs
	graphCount = 2   // power-law graphs registered per server
	backend    = "parallel"
)

// class is one query of a workload's mix with its share of requests.
type class struct {
	query  string
	weight float64
}

// workload is one traffic mix. Its request list is a pure function of
// the seed and the request count, so every run of one seed sends the
// same requests in the same order.
type workload struct {
	name string
	// rate is the nominal request rate on that box: a run sends
	// seconds × rate requests, fixed work rather than a timed window, so
	// host drift changes the measured rate but never the work measured.
	rate float64
	// expect is the X-Cache value every measured response must carry.
	expect string
	// mix weights keep latency class boundaries away from the 50th and
	// 90th percentiles. With one job worker and two clients, jobs run
	// alternately, so a reply's latency is its own service time plus
	// the other client's: the classes are pairs of queries.
	mix    []class
	trials int
	// hot: measured requests replay a hot set warmed during set-up.
	hot bool
	// relabel: every request is a labeling of its query never sent
	// before in this server process (so it misses the plan cache too).
	relabel bool
	// samples is how many measured responses are recomputed in-process.
	samples int
}

var workloads = []workload{
	{
		name: "hit-heavy", rate: 16000, expect: "HIT", trials: 3, hot: true, samples: 6,
		mix: []class{{"glet1", 1}, {"glet2", 1}, {"dros", 1}},
	},
	{
		name: "miss-heavy", rate: 85, expect: "MISS", trials: 1, samples: 8,
		mix: []class{{"glet1", 0.25}, {"cycle5", 0.25}, {"brain1", 0.50}},
	},
	{
		name: "cold-query", rate: 12.5, expect: "MISS", trials: 1, relabel: true, samples: 4,
		mix: []class{{"brain1", 0.30}, {"brain2", 0.40}, {"ecoli1", 0.30}},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sizes are the input sizes of a run; the self-test shrinks them.
type sizes struct {
	graphN   int     // vertices per Chung-Lu graph
	hotSeeds int     // hit-heavy hot-set seeds per (graph, query)
	setups   int     // servers per run, each replaying one segment of the list
	scale    float64 // multiplies seconds × rate into the request count
}

var fullSizes = sizes{graphN: 2000, hotSeeds: 16, setups: 3, scale: 1}

// graphSpec is the POST /v1/graphs body of one seeded power-law graph.
type graphSpec struct {
	Name     string  `json:"name"`
	PowerLaw int     `json:"powerlaw"`
	Alpha    float64 `json:"alpha"`
	Seed     int64   `json:"seed"`
}

// request is one POST /v1/estimate (or /v1/jobs) body.
type request struct {
	Graph      string   `json:"graph"`
	Query      string   `json:"query,omitempty"`
	QueryEdges [][2]int `json:"queryEdges,omitempty"`
	QueryName  string   `json:"queryName,omitempty"`
	Trials     int      `json:"trials"`
	Seed       int64    `json:"seed"`

	hot  int    // index into plan.warm of the hot key this replays, or -1
	body []byte // the marshaled request
}

// labelKey identifies the labeled query structure a request carries —
// what the server's plan and result caches key on.
func (r request) labelKey() string {
	if r.QueryEdges == nil {
		return r.Query
	}
	return fmt.Sprint(r.QueryEdges)
}

// plan is a run's generated input: the graphs, the set-up requests and
// the measured request list in dispatch order.
type plan struct {
	w      workload
	graphs []graphSpec
	warm   []request
	reqs   []request
	sample []int // indices into reqs whose responses are recomputed in-process
}

func newPlan(w workload, seed int64, seconds int, sz sizes) (plan, error) {
	rng := rand.New(rand.NewSource(seed))
	p := plan{w: w}
	for i := 0; i < graphCount; i++ {
		p.graphs = append(p.graphs, graphSpec{
			Name: fmt.Sprintf("pl%d", i), PowerLaw: sz.graphN, Alpha: alpha, Seed: rng.Int63n(1 << 31),
		})
	}
	n := int(math.Round(float64(seconds) * w.rate * sz.scale))
	if n < 2*clients {
		n = 2 * clients
	}
	// Coloring seeds count up from a seeded base: no two requests of a
	// run share one, so a non-hot request never repeats a cache key.
	nextSeed := rng.Int63n(1 << 40)
	seen := map[string]bool{}
	mk := func(graph, q string) (request, error) {
		r := request{Graph: graph, Trials: w.trials, Seed: nextSeed, hot: -1}
		nextSeed++
		if !w.relabel {
			r.Query = q
			return r, nil
		}
		edges, err := freshLabeling(q, rng, seen)
		r.QueryEdges, r.QueryName = edges, q
		return r, err
	}
	for _, g := range p.graphs {
		for _, c := range w.mix {
			seeds := 1
			if w.hot {
				seeds = sz.hotSeeds
			}
			for s := 0; s < seeds; s++ {
				r, err := mk(g.Name, c.query)
				if err != nil {
					return plan{}, err
				}
				p.warm = append(p.warm, r)
			}
		}
	}
	for i := 0; i < n; i++ {
		if w.hot {
			k := rng.Intn(len(p.warm))
			r := p.warm[k]
			r.hot = k
			p.reqs = append(p.reqs, r)
			continue
		}
		r, err := mk(p.graphs[rng.Intn(len(p.graphs))].Name, pick(w.mix, rng))
		if err != nil {
			return plan{}, err
		}
		p.reqs = append(p.reqs, r)
	}
	for i := range p.warm {
		p.warm[i].body = mustJSON(p.warm[i])
	}
	for i := range p.reqs {
		p.reqs[i].body = mustJSON(p.reqs[i])
	}
	for _, i := range rng.Perm(n) {
		if len(p.sample) == w.samples {
			break
		}
		p.sample = append(p.sample, i)
	}
	sort.Ints(p.sample)
	return p, nil
}

// segment returns the i-th of k consecutive parts of the request list as
// a plan of its own.
func (p plan) segment(i, k int) plan {
	lo, hi := i*len(p.reqs)/k, (i+1)*len(p.reqs)/k
	s := p
	s.reqs, s.sample = p.reqs[lo:hi], nil
	for _, j := range p.sample {
		if lo <= j && j < hi {
			s.sample = append(s.sample, j-lo)
		}
	}
	return s
}

func pick(mix []class, rng *rand.Rand) string {
	var total float64
	for _, c := range mix {
		total += c.weight
	}
	x := rng.Float64() * total
	for _, c := range mix {
		if x < c.weight {
			return c.query
		}
		x -= c.weight
	}
	return mix[len(mix)-1].query
}

// freshLabeling returns the named query under a seeded node permutation
// whose labeled edge set is not in seen, and records it there.
func freshLabeling(name string, rng *rand.Rand, seen map[string]bool) ([][2]int, error) {
	q, err := query.ByName(name)
	if err != nil {
		return nil, err
	}
	for try := 0; try < 1000; try++ {
		perm := rng.Perm(q.K)
		edges := make([][2]int, 0, q.M())
		for _, e := range q.Edges() {
			a, b := perm[e[0]], perm[e[1]]
			if a > b {
				a, b = b, a
			}
			edges = append(edges, [2]int{a, b})
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i][0] != edges[j][0] {
				return edges[i][0] < edges[j][0]
			}
			return edges[i][1] < edges[j][1]
		})
		key := fmt.Sprint(edges)
		if !seen[key] {
			seen[key] = true
			return edges, nil
		}
	}
	return nil, fmt.Errorf("no unused labeling of %s left; lower --seconds", name)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return b
}
