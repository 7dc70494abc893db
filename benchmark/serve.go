package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"kncube/internal/serve"
)

// clients is the closed-loop concurrency of the serve workloads: one
// client per core of the 2-core machines the benchmark targets.
const clients = 2

// harness is one khs-serve instance behind a loopback httptest server.
type harness struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func startHarness() *harness {
	srv := serve.New(serve.Config{RuntimeMetricsInterval: -1, TraceSeed: 1})
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}
	return &harness{srv: srv, ts: ts, client: client}
}

// close stops the server and waits for its goroutines to end.
func (h *harness) close() {
	h.client.CloseIdleConnections()
	h.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx) // no async jobs outlive setup; the drain cannot time out
}

// Answer codes kept per response (strings would be allocated per decode).
const (
	srcExact = iota + 1
	srcSurface
)

const (
	cacheMiss = iota + 1
	cacheHit
)

// answer is the part of a /v1/solve response the checks need. The result
// is kept as its latency plus a fingerprint of every field's bits, so the
// answers a serve-exact run keeps stay small.
type answer struct {
	status    int
	source    uint8
	cache     uint8
	saturated bool
	latency   float64
	fp        uint64
}

// answerFor is the answer carrying result res.
func answerFor(res serve.SolveResult) answer {
	return answer{status: http.StatusOK, latency: res.Latency, fp: fingerprint(res)}
}

// post sends one /v1/solve body and decodes the answer. The round trip is
// timed from send until the whole body has been read.
func (h *harness) post(body []byte) (time.Duration, answer, error) {
	t0 := time.Now()
	resp, err := h.client.Post(h.ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return time.Since(t0), answer{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t0)
	if err != nil {
		return rt, answer{}, err
	}
	ans := answer{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		return rt, ans, nil
	}
	var sr serve.SolveResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return rt, answer{}, fmt.Errorf("decode /v1/solve answer: %w", err)
	}
	if sr.Result != nil {
		ans = answerFor(*sr.Result)
	}
	ans.saturated = sr.Saturated
	switch sr.Source {
	case serve.ModeExact:
		ans.source = srcExact
	case serve.ModeSurface:
		ans.source = srcSurface
	}
	switch sr.Cache {
	case "miss":
		ans.cache = cacheMiss
	case "hit":
		ans.cache = cacheHit
	}
	return rt, ans, nil
}

// closedLoop runs `clients` clients for d: each pulls the next stream
// index (counting up from `from`) and calls op(c, i), which sends request
// i as client c, keeps what the checks need and returns the round trip.
// The loop keeps only fixed-size round-trip histograms, so its memory does
// not grow with throughput. With a tracer, each op is wrapped in a
// client-side "serve.request" span.
func (h *harness) closedLoop(d time.Duration, tr tracer, from int, op func(c, i int) time.Duration) *loopStats {
	var next atomic.Int64
	next.Store(int64(from))
	ls := &loopStats{slice: d / maxWindows}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hs := &ls.hist[c]
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				_, sp := tr.Start(context.Background(), "serve.request")
				rt := op(c, i)
				sp.End()
				s := min(int(time.Since(start)/ls.slice), maxWindows-1)
				hs[s].add(rt)
			}
		}(c)
	}
	wg.Wait()
	ls.wall = time.Since(start)
	return ls
}

// Windows of a closed loop: equal slices of its wall time, as many as give
// each about windowSamples requests (so a window's p99 rests on 50), at
// most maxWindows.
const (
	windowSamples = 5000
	maxWindows    = 20
)

// loopStats is what a closed loop measured: a round-trip histogram per
// client and per slice of d/maxWindows (the last slice runs to the loop's
// end), by completion time.
type loopStats struct {
	hist  [clients][maxWindows]rtHist
	slice time.Duration
	wall  time.Duration
}

// window merges the clients' histograms of slices [a, b) and returns the
// merge and its length.
func (ls *loopStats) window(a, b int) (*rtHist, time.Duration) {
	var w rtHist
	for c := range ls.hist {
		for s := a; s < b; s++ {
			w.merge(&ls.hist[c][s])
		}
	}
	width := time.Duration(b-a) * ls.slice
	if b == maxWindows {
		width = ls.wall - time.Duration(a)*ls.slice
	}
	return &w, width
}

// p50 is the loop's median round trip, in ms.
func (ls *loopStats) p50() float64 {
	w, _ := ls.window(0, maxWindows)
	return w.quantile(0.5)
}

// metrics fills the op_* metrics: the round-trip p50 and p99 and the
// completion rate of each window, and the median of each over the
// windows. Medians over windows keep a second-long stall of the host from
// setting a run's p99.
func (ls *loopStats) metrics(out *outcome) {
	all, _ := ls.window(0, maxWindows)
	n := min(maxWindows, max(1, int(all.n)/windowSamples))
	var p50, p99, rate []float64
	for g := 0; g < n; g++ {
		w, width := ls.window(g*maxWindows/n, (g+1)*maxWindows/n)
		if w.n > 0 {
			p50 = append(p50, w.quantile(0.5))
			p99 = append(p99, w.quantile(0.99))
		}
		rate = append(rate, float64(w.n)/width.Seconds())
	}
	out.samples = int(all.n)
	out.metrics["op_p50_ms"] = median(p50)
	out.metrics["op_p99_ms"] = median(p99)
	out.metrics["ops_per_s"] = median(rate)
	out.note("op metrics: medians over %d windows of %.2fs", n, ls.wall.Seconds()/float64(n))
}

// rtHist is a round-trip histogram with log-spaced buckets, histGrowth
// apart, from 1µs up; longer round trips land in the top bucket.
type rtHist struct {
	n      int64
	counts [histBuckets]uint32
}

const (
	histBuckets = 4000
	histGrowth  = 1.005 // bucket edges 0.5% apart: 1µs to ~8 min
)

var logGrowth = math.Log(histGrowth)

func (h *rtHist) add(rt time.Duration) {
	us := float64(rt.Nanoseconds()) / 1e3
	b := 0
	if us > 1 {
		b = min(int(math.Log(us)/logGrowth), histBuckets-1)
	}
	h.counts[b]++
	h.n++
}

func (h *rtHist) merge(o *rtHist) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// quantile is the q-quantile in ms, with the same rank convention as
// quantile: the order statistic at q·(n−1), placed within its bucket by
// its rank there. NaN for an empty histogram.
func (h *rtHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	pos := q * float64(h.n-1)
	var below float64
	for b, c := range h.counts {
		if c == 0 || below+float64(c) <= pos {
			below += float64(c)
			continue
		}
		frac := (pos - below + 0.5) / float64(c)
		return math.Pow(histGrowth, float64(b)+frac) / 1e3
	}
	return math.Pow(histGrowth, histBuckets) / 1e3
}

// buildSurfaces submits the serve-auto surface builds and waits for both
// to finish.
func (h *harness) buildSurfaces() error {
	var ids []string
	for _, lm := range paperLms {
		body, err := json.Marshal(surfaceRequest(lm))
		if err != nil {
			return err
		}
		resp, err := h.client.Post(h.ts.URL+"/v1/surfaces", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var st serve.SurfaceStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST /v1/surfaces Lm=%d: status %d: %v", lm, resp.StatusCode, err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		for {
			resp, err := h.client.Get(h.ts.URL + "/v1/surfaces/" + id)
			if err != nil {
				return err
			}
			var st serve.SurfaceStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				return err
			}
			if st.State == "done" {
				break
			}
			if st.State != "running" {
				return fmt.Errorf("surface build %s: %s %s", id, st.State, st.Error)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}
