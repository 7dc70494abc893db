package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"

	"kncube/internal/core"
	"kncube/internal/serve"
	"kncube/internal/surface"
)

// truth is core.Solve's answer for one query: the reference every served
// answer is checked against.
type truth struct {
	res *core.SolveResult
	err error
}

func solveTruth(q query) truth {
	res, err := core.Solve(q.Model, q.Spec, q.Opts)
	return truth{res, err}
}

// parallel runs f(i) for i in [0, n) on `clients` goroutines and waits.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += clients {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}

// exactMismatch reports how an exact-path answer differs from core.Solve,
// or "" when it matches: the latency decomposition and the convergence
// summary bit for bit, and "saturated" exactly when core.Solve returns
// ErrSaturated.
func exactMismatch(a answer, t truth) string {
	satTruth := errors.Is(t.err, core.ErrSaturated)
	switch {
	case t.err != nil && !satTruth:
		return fmt.Sprintf("core.Solve failed (%v) but the server answered 200", t.err)
	case a.saturated != satTruth:
		return fmt.Sprintf("saturated=%v, core.Solve saturated=%v", a.saturated, satTruth)
	case satTruth:
		return ""
	}
	if want := apiResult(t.res); a.fp != fingerprint(want) {
		return fmt.Sprintf("answer latency %v, core.Solve %+v (fields differ in their bits)", a.latency, want)
	}
	return ""
}

// apiResult is core's result in the response's shape.
func apiResult(r *core.SolveResult) serve.SolveResult {
	return serve.SolveResult{
		Latency: r.Latency, Regular: r.Regular, Hot: r.Hot, SourceWait: r.SourceWait,
		VBar: r.VBar, Iterations: r.Convergence.Iterations, Residual: r.Convergence.Residual,
	}
}

// fingerprint hashes every field of a result by its bits (FNV-1a), so two
// results have the same fingerprint only if they agree bit for bit.
func fingerprint(r serve.SolveResult) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range []uint64{
		math.Float64bits(r.Latency), math.Float64bits(r.Regular), math.Float64bits(r.Hot),
		math.Float64bits(r.SourceWait), math.Float64bits(r.VBar), uint64(r.Iterations),
		math.Float64bits(r.Residual),
	} {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// surfaceMismatch reports how a surface-sourced answer differs from a
// direct Eval of the same surface, or "" when it matches bit for bit.
func surfaceMismatch(a answer, lk surface.Lookup) string {
	want := serve.SolveResult{Latency: lk.Latency, Regular: lk.Regular, Hot: lk.Hot,
		SourceWait: lk.SourceWait, VBar: lk.VBar}
	if a.fp != fingerprint(want) {
		return fmt.Sprintf("surface answer latency %v, direct Eval %+v (fields differ in their bits)", a.latency, want)
	}
	return ""
}

// realisedError is the relative latency error of an interpolated answer
// against core.Solve; +Inf when core.Solve reports saturation or fails.
func realisedError(latency float64, t truth) float64 {
	if t.err != nil {
		return math.Inf(1)
	}
	return math.Abs(latency-t.res.Latency) / t.res.Latency
}

// csvMismatch reports the first byte where a swept CSV departs from the
// committed one, or "" when they are identical.
func csvMismatch(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	return fmt.Sprintf("differs at byte %d (len %d, want %d)", i, len(got), len(want))
}
