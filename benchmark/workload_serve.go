package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"kncube/internal/surface"
)

// Auto-mode acceptance bound the server applies by default
// (serve.Config.SurfaceMaxError): surface answers must be within 1%.
const surfaceBound = 0.01

// warmSeed seeds the fixed warm-up requests sent during serve-exact
// set-up; the timed stream is drawn from the workload seed.
const warmSeed = -1

// warmUps is how many warm-up requests set-up sends: one block of the
// warm-up stream, so set-up solves every grid cell once.
var warmUps = exactCells

// setupReps is how many times a cheap set-up is repeated; setup_s is the
// median.
const setupReps = 9

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runServeExact: a closed loop of 2 clients, every request a fresh
// exact-mode spec, so nothing hits the solve cache and the time is in the
// solver.
func runServeExact(cfg config) (*outcome, error) {
	out := newOutcome()
	var h *harness
	setup, err := medianSetup(setupReps, func(last bool) error {
		h = startHarness()
		for i := 0; i < warmUps; i++ {
			if _, a, err := h.post(exactQuery(warmSeed, i).Body); err != nil || a.status != 200 {
				return fmt.Errorf("warm-up request %d: status %d: %v", i, a.status, err)
			}
		}
		if !last {
			h.close()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer h.close()
	out.metrics["setup_s"] = setup
	out.note("inputs seed=%d stream=exactQuery(seed, i) sha256(first %d)=%s",
		cfg.seed, hashPrefix, inputsHash("serve-exact", cfg.seed))
	if cfg.trace {
		return out, traceRun(cfg, out, func(tr tracer, from int, d time.Duration) float64 {
			ls, recs := exactLoop(h, tr, cfg.seed, from, d)
			checkExactLoop(out, recs, cfg.seed)
			return ls.p50()
		}, nil, nil)
	}

	ls, recs := exactLoop(h, nil, cfg.seed, 0, seconds(cfg.seconds))
	out.metrics["max_rss_mb"] = maxRSSMB()
	ls.metrics(out)
	checkExactLoop(out, recs, cfg.seed)
	return out, nil
}

// exactRec is one serve-exact answer and the stream item it answers. It
// is the only per-request state of a run: 48 B a request, under 0.3 MB
// in a 15 s run.
type exactRec struct {
	idx int
	ans answer
}

// exactLoop runs the serve-exact closed loop from stream index from and
// returns what it measured and each client's answers.
func exactLoop(h *harness, tr tracer, seed int64, from int, d time.Duration) (*loopStats, [][]exactRec) {
	recs := make([][]exactRec, clients)
	ls := h.closedLoop(d, tr, from, func(c, i int) time.Duration {
		rt, a, _ := h.post(exactQuery(seed, i).Body)
		recs[c] = append(recs[c], exactRec{i, a})
		return rt
	})
	return ls, recs
}

// checkExactLoop checks every serve-exact answer against core.Solve and
// notes the share of answers past saturation.
func checkExactLoop(out *outcome, recs [][]exactRec, seed int64) {
	var all []exactRec
	for _, r := range recs {
		all = append(all, r...)
	}
	bad := make([]string, len(all))
	parallel(len(all), func(i int) {
		e := all[i]
		if e.ans.status != 200 {
			bad[i] = fmt.Sprintf("status %d", e.ans.status)
			return
		}
		if m := exactMismatch(e.ans, solveTruth(exactQuery(seed, e.idx))); m != "" {
			bad[i] = "wrong answer: " + m
		}
	})
	out.attempted += int64(len(all))
	misses, saturated := 0, 0
	for i, b := range bad {
		if all[i].ans.cache == cacheMiss {
			misses++
		}
		if all[i].ans.saturated {
			saturated++
		}
		if b == "" {
			continue
		}
		out.failed++
		if all[i].ans.status == 200 {
			out.wrong("serve-exact item %d: %s", all[i].idx, b)
		}
	}
	out.note("checked %d exact answers against core.Solve: %d cache misses, %d saturated (share %.4f)",
		len(all), misses, saturated, float64(saturated)/float64(max(1, len(all))))
}

// autoEnv is a serve-auto server after set-up: surfaces built and every
// pool point sent once.
type autoEnv struct {
	h    *harness
	seed int64
	pool []query
	ref  *autoReference // built on first use
}

func setupAuto(seed int64) (*autoEnv, error) {
	h := startHarness()
	if err := h.buildSurfaces(); err != nil {
		h.close()
		return nil, err
	}
	pool := autoPool(seed)
	var mu sync.Mutex
	var firstErr error
	parallel(len(pool), func(i int) {
		_, a, err := h.post(pool[i].Body)
		if err == nil && a.status != 200 {
			err = fmt.Errorf("pool point %d: status %d", i, a.status)
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	if firstErr != nil {
		h.close()
		return nil, fmt.Errorf("pre-touching the pool: %w", firstErr)
	}
	return &autoEnv{h: h, seed: seed, pool: pool}, nil
}

// reference is what the serve-auto answers are checked against, built
// the first time it is needed.
func (e *autoEnv) reference() (*autoReference, error) {
	if e.ref == nil {
		ref, err := newAutoReference(e.pool)
		if err != nil {
			return nil, err
		}
		e.ref = ref
	}
	return e.ref, nil
}

// autoTally is what serve-auto keeps per pool point and client. Answers
// are counted, not stored, since every answer for one point must be the
// same; the tallies take the same memory however many requests a run
// makes.
type autoTally struct {
	n, notOK int64  // answers, and those with a status other than 200
	hits     int64  // answers served from the solve cache
	status   int    // the first status other than 200
	first    answer // the first 200 answer
	diverged bool   // a later 200 answer differed from first
}

func (t *autoTally) add(a answer) {
	t.n++
	switch {
	case a.status != 200:
		if t.notOK++; t.status == 0 {
			t.status = a.status
		}
		return
	case a.cache == cacheHit:
		t.hits++
	}
	if t.n-t.notOK == 1 {
		t.first = a
	} else if a.source != t.first.source || a.saturated != t.first.saturated || a.fp != t.first.fp {
		t.diverged = true
	}
}

// loop runs the serve-auto closed loop from draw index from and returns
// what it measured and the tallies of the answers.
func (e *autoEnv) loop(tr tracer, from int, d time.Duration) (*loopStats, [][]autoTally) {
	tallies := make([][]autoTally, clients)
	for c := range tallies {
		tallies[c] = make([]autoTally, poolSize)
	}
	ls := e.h.closedLoop(d, tr, from, func(c, i int) time.Duration {
		p := autoDraw(e.seed, i)
		rt, a, _ := e.h.post(e.pool[p].Body)
		tallies[c][p].add(a)
		return rt
	})
	return ls, tallies
}

// runServeAuto: a closed loop of 2 clients over auto-mode queries drawn
// with replacement from a fixed pool, after the surfaces are built and
// the pool is pre-touched, so answers come from a surface or the cache.
func runServeAuto(cfg config) (*outcome, error) {
	out := newOutcome()
	t0 := time.Now()
	env, err := setupAuto(cfg.seed)
	if err != nil {
		return nil, err
	}
	defer env.h.close()
	out.metrics["setup_s"] = time.Since(t0).Seconds()
	out.note("inputs seed=%d pool=%d sha256(pool, first %d draws, surfaces)=%s",
		cfg.seed, poolSize, hashPrefix, inputsHash("serve-auto", cfg.seed))
	check := func(tallies [][]autoTally) error {
		ref, err := env.reference()
		if err != nil {
			return err
		}
		checkAutoLoop(out, tallies, env.pool, ref)
		return nil
	}
	if cfg.trace {
		var checkErr error
		err := traceRun(cfg, out, func(tr tracer, from int, d time.Duration) float64 {
			ls, tallies := env.loop(tr, from, d)
			if err := check(tallies); err != nil && checkErr == nil {
				checkErr = err
			}
			return ls.p50()
		}, env, nil)
		return out, errors.Join(checkErr, err)
	}

	ls, tallies := env.loop(nil, 0, seconds(cfg.seconds))
	out.metrics["max_rss_mb"] = maxRSSMB()
	ls.metrics(out)
	return out, check(tallies)
}

// autoReference is what serve-auto answers are checked against: core.Solve
// for every pool point, and the same surfaces built directly.
type autoReference struct {
	truth    []truth
	surfaces map[int]*surface.Surface // by Lm
	buildS   float64
}

func newAutoReference(pool []query) (*autoReference, error) {
	ref := &autoReference{truth: make([]truth, len(pool)), surfaces: map[int]*surface.Surface{}}
	parallel(len(pool), func(i int) { ref.truth[i] = solveTruth(pool[i]) })
	for _, lm := range paperLms {
		sr := surfaceRequest(lm)
		t0 := time.Now()
		s, err := surface.Build(surface.Def{Model: sr.Model, K: sr.K, V: sr.V, Lm: sr.Lm,
			Hs: sr.Hs, Lambdas: sr.Lambdas}, surface.BuildOptions{})
		ref.buildS += time.Since(t0).Seconds()
		if err != nil {
			return nil, err
		}
		ref.surfaces[lm] = s
	}
	return ref, nil
}

// eval is the direct lookup the server's auto mode makes for q, and
// whether auto mode accepts it.
func (r *autoReference) eval(q query) (surface.Lookup, bool) {
	lk, err := r.surfaces[q.Spec.Lm].Eval(q.Spec.H, q.Spec.Lambda)
	return lk, err == nil && lk.ErrEstimate <= surfaceBound
}

// autoCounts counts the 200 answers of a serve-auto loop by path, and the
// surface answers more than the server's bound from core.Solve.
type autoCounts struct {
	surface, exact, hits int64
	badAccepts           int64
}

// checkAutoLoop checks every serve-auto answer. Exact-path answers must
// match core.Solve bit for bit and surface answers a direct Eval; the
// source must be the one the direct lookup predicts, and every answer for
// one pool point the same. A surface answer more than 1% from core.Solve
// breaks the bound the server claims (the surface-bound defect): it is
// counted and reported as badAccepts, not as a failed operation, since the
// server answered as specified and which pool points do so is fixed by
// the seed.
func checkAutoLoop(out *outcome, tallies [][]autoTally, pool []query, ref *autoReference) autoCounts {
	var n autoCounts
	for _, ts := range tallies {
		for p, t := range ts {
			out.attempted += t.n
			out.failed += t.notOK
			ok := t.n - t.notOK
			if ok == 0 {
				continue
			}
			a := t.first
			lk, accept := ref.eval(pool[p])
			switch {
			case t.diverged:
				out.failed += ok
				out.wrong("serve-auto pool point %d: answers differ between requests", p)
			case a.source == srcSurface && !accept, a.source == srcExact && accept:
				out.failed += ok
				out.wrong("serve-auto pool point %d: source %d, direct lookup accepts=%v", p, a.source, accept)
			case a.source == srcSurface:
				n.surface += ok
				if m := surfaceMismatch(a, lk); m != "" {
					out.failed += ok
					out.wrong("serve-auto pool point %d: %s", p, m)
				} else if realisedError(a.latency, ref.truth[p]) > surfaceBound {
					n.badAccepts += ok
				}
			default:
				n.exact += ok
				n.hits += t.hits
				if m := exactMismatch(a, ref.truth[p]); m != "" {
					out.failed += ok
					out.wrong("serve-auto pool point %d: %s", p, m)
				}
			}
		}
	}
	out.note("checked %d auto answers: %d from a surface; surface-bound defect: %d of those >%g%% from core.Solve (bad_accepts %.6f of answers; reported, not counted in failed)",
		n.surface+n.exact, n.surface, n.badAccepts, surfaceBound*100,
		float64(n.badAccepts)/float64(max(1, n.surface+n.exact)))
	return n
}
