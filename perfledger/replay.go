package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one request produced, as the client saw it.
type outcome struct {
	lat       time.Duration
	status    int
	cache     string  // X-Cache
	elapsedMs float64 // server-side X-Elapsed-Ms
	sum       uint64  // FNV-64a of the body
	body      []byte  // kept only for requests recomputed in-process
	phases    map[string]float64
	err       error
}

// pass is one closed-loop replay of a request list.
type pass struct {
	out  []outcome
	wall time.Duration
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// replay sends reqs from clients concurrent closed-loop callers: each
// takes the next request in list order once its previous reply has been
// read in full. keep marks the requests whose bodies are retained. With
// jobs set, every request goes through POST /v1/jobs, its result is
// long-polled and its trace fetched; otherwise through POST /v1/estimate.
func replay(ctx context.Context, hc *http.Client, base string, reqs []request, keep map[int]bool, jobs bool) pass {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				t := time.Now()
				var o outcome
				if jobs {
					o = doJob(ctx, hc, base, reqs[i].body)
				} else {
					o = doEstimate(ctx, hc, base, reqs[i].body)
				}
				o.lat = time.Since(t)
				if !keep[i] {
					o.body = nil
				}
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return pass{out: out, wall: time.Since(begin)}
}

func doEstimate(ctx context.Context, hc *http.Client, base string, body []byte) outcome {
	return fetch(ctx, hc, http.MethodPost, base+"/v1/estimate", body)
}

// fetch performs one request and reads its reply in full.
func fetch(ctx context.Context, hc *http.Client, method, url string, body []byte) outcome {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	o := outcome{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b, err: err}
	if v := resp.Header.Get("X-Elapsed-Ms"); v != "" {
		o.elapsedMs, _ = strconv.ParseFloat(v, 64) // absent or malformed reads as 0
	}
	h := fnv.New64a()
	h.Write(b)
	o.sum = h.Sum64()
	return o
}

// doJob submits one job, long-polls its result and fetches its trace.
func doJob(ctx context.Context, hc *http.Client, base string, body []byte) outcome {
	sub := fetch(ctx, hc, http.MethodPost, base+"/v1/jobs", body)
	if sub.err != nil || sub.status != http.StatusAccepted {
		return outcome{status: sub.status, err: fmt.Errorf("submit job: status %d: %v", sub.status, sub.err)}
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(sub.body, &info); err != nil {
		return outcome{err: fmt.Errorf("decode job: %w", err)}
	}
	o := fetch(ctx, hc, http.MethodGet, base+"/v1/jobs/"+info.ID+"/result?wait=60s", nil)
	if o.err != nil || o.status != http.StatusOK {
		return o
	}
	tr := fetch(ctx, hc, http.MethodGet, base+"/v1/jobs/"+info.ID+"/trace", nil)
	if tr.err != nil || tr.status != http.StatusOK {
		return outcome{status: tr.status, err: fmt.Errorf("job trace: status %d: %v", tr.status, tr.err)}
	}
	var trace struct {
		Phases map[string]struct {
			TotalMs float64 `json:"totalMs"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(tr.body, &trace); err != nil {
		return outcome{err: fmt.Errorf("decode trace: %w", err)}
	}
	o.phases = make(map[string]float64, len(trace.Phases))
	for name, ph := range trace.Phases {
		o.phases[name] = ph.TotalMs
	}
	return o
}
