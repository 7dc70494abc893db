package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"kncube/internal/core"
	"kncube/internal/experiments"
	"kncube/internal/fixpoint"
	"kncube/internal/telemetry/span"
)

// tracer records the traced run's spans; nil records nothing.
type tracer = *span.Tracer

// spanSink keeps every finished trace in memory until the run ends.
type spanSink struct {
	mu   sync.Mutex
	recs []span.Record
}

func (s *spanSink) Export(recs []span.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, recs...)
	s.mu.Unlock()
}

// Replay sizes of the traced run.
const (
	exactReplayN = 400  // serve-exact stream items replayed
	autoReplayN  = 4000 // serve-auto draws replayed
	evalReps     = 64   // direct Evals per pool point, timed together
	tracedFrom   = 1 << 30
)

// sweepTrace carries the sweep-figures set-up into the traced run.
type sweepTrace struct {
	panels []experiments.Panel
	ref    map[string][]byte
}

// traceRun is the traced run. It first measures trace.overhead_ratio for
// the named workload: its end-to-end headline (op p50 for a serve loop,
// the sweep's wall time) traced ÷ untraced − 1, each over half the run.
// Then it replays the seeded inputs of all three workloads through the
// layers with spans around each call, checks every replayed answer, and
// derives the per-layer metrics. loop runs the serve workload's closed
// loop from a stream index for a duration and returns its op p50; auto
// and sw hand over the named workload's set-up for reuse.
func traceRun(cfg config, out *outcome, loop func(tr tracer, from int, d time.Duration) float64, auto *autoEnv, sw *sweepTrace) error {
	sink := &spanSink{}
	tr := span.New(span.Config{Exporter: sink, Seed: cfg.seed, Tail: span.TailPolicy{SlowThreshold: -1}})
	half := seconds(cfg.seconds / 2)
	var swept *sweepRun
	if loop != nil {
		// The traced half continues the stream where no untraced request
		// can have reached, so neither half is served from the other's
		// cache entries.
		base := loop(nil, 0, half)
		out.metrics["trace.overhead_ratio"] = loop(tr, tracedFrom, half)/base - 1
	} else {
		base, err := runSweep(context.Background(), sw.panels)
		if err != nil {
			return err
		}
		if swept, err = tracedSweep(tr, sw.panels, sw.ref, out); err != nil {
			return err
		}
		out.metrics["trace.overhead_ratio"] = swept.wall.Seconds()/base.wall.Seconds() - 1
		checkSweep(out, base, sw.ref)
	}

	if err := exactLayers(cfg, out, tr); err != nil {
		return err
	}
	if err := autoLayers(cfg, out, tr, auto); err != nil {
		return err
	}
	if err := sweepLayers(cfg, out, tr, sw, swept); err != nil {
		return err
	}
	spanMetrics(out, sink.recs)

	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, r := range sink.recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	name := fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)
	if err := writeFile(cfg.outDir, name, b.Bytes()); err != nil {
		return err
	}
	out.note("spans: %d records written to %s/%s", len(sink.recs), cfg.outDir, name)
	return nil
}

// calibrated mirrors the core driver's defaulting of an all-zero
// fixed-point configuration; the bit-identity check against core.Solve
// catches any drift.
func calibrated(o fixpoint.Options) fixpoint.Options {
	if o.Tolerance == 0 && o.MaxIterations == 0 && o.Damping == 0 {
		o.Tolerance, o.MaxIterations, o.Damping = 1e-9, 20000, 0.5
	}
	return o
}

// replaySolve runs one solve phase by phase, as core.Solve does, with a
// span around each phase and each Iterate call.
func replaySolve(tr tracer, q query) (truth, int) {
	ctx, root := tr.Start(context.Background(), "replay.solve", span.String("model", q.Model))
	defer root.End()
	phase := func(name string, f func() error) error {
		_, sp := span.StartChild(ctx, name)
		defer sp.End()
		return f()
	}
	var s core.Solver
	err := phase("core.new_solver", func() (err error) {
		s, err = core.NewSolver(q.Model, q.Spec, q.Opts)
		return err
	})
	if err == nil {
		err = phase("core.validate", s.Validate)
	}
	if err != nil {
		return truth{err: err}, 0
	}
	_ = phase("core.prepare", func() error { s.Prepare(); return nil })
	var x []float64
	_ = phase("core.init_state", func() error {
		x = make([]float64, s.StateSize())
		s.InitState(x)
		return nil
	})
	// Iterate is timed by a clock read on each side rather than a span per
	// round, so the fixed-point driver's own time (the span's duration
	// minus the Iterate total) carries no tracing cost beyond that pair.
	_, fsp := span.StartChild(ctx, "fixpoint.solve")
	var rounds, iterateNS int64
	iterate := func(in, out []float64) error {
		t0 := time.Now()
		err := s.Iterate(in, out)
		iterateNS += int64(time.Since(t0))
		rounds++
		return err
	}
	conv, err := fixpoint.Solve(x, iterate, calibrated(q.Opts.FixPoint))
	fsp.SetAttr("rounds", rounds)
	fsp.SetAttr("iterate_ns", iterateNS)
	fsp.End()
	if err != nil {
		if errors.Is(err, fixpoint.ErrDiverged) || errors.Is(err, fixpoint.ErrMaxIterations) {
			err = fmt.Errorf("%w: %v", core.ErrSaturated, err)
		}
		return truth{err: err}, conv.Iterations
	}
	var res *core.SolveResult
	err = phase("core.assemble", func() (err error) {
		res, err = s.Assemble(x, conv)
		return err
	})
	return truth{res, err}, conv.Iterations
}

// sameOutcome reports whether a replayed solve matches core.Solve: the
// same result bit for bit, or errors of the same class.
func sameOutcome(a, b truth) bool {
	if (a.err == nil) != (b.err == nil) {
		return false
	}
	if a.err != nil {
		return errors.Is(a.err, core.ErrSaturated) == errors.Is(b.err, core.ErrSaturated)
	}
	return exactMismatch(answerFor(apiResult(a.res)), b) == ""
}

// exactLayers replays the first exactReplayN serve-exact items three
// ways: one client sending them in sequence under client spans, untraced
// direct core.Solve calls (timed, with allocation counts), and the traced
// phase-by-phase replay, which must match core.Solve bit for bit.
func exactLayers(cfg config, out *outcome, tr tracer) error {
	h := startHarness()
	defer h.close()
	qs := make([]query, exactReplayN)
	rts := make([]time.Duration, exactReplayN)
	ans := make([]answer, exactReplayN)
	for i := range qs {
		qs[i] = exactQuery(cfg.seed, i)
		_, sp := tr.Start(context.Background(), "serve.request")
		rt, a, err := h.post(qs[i].Body)
		sp.End()
		if err != nil {
			return err
		}
		rts[i], ans[i] = rt, a
	}

	truths := make([]truth, exactReplayN)
	solveMS := make([]float64, exactReplayN)
	overhead := make([]float64, exactReplayN)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, q := range qs {
		t0 := time.Now()
		truths[i] = solveTruth(q)
		d := time.Since(t0)
		solveMS[i] = float64(d.Nanoseconds()) / 1e6
		overhead[i] = float64((rts[i] - d).Nanoseconds()) / 1e3
	}
	runtime.ReadMemStats(&m1)

	rounds, saturated := 0, 0
	for i, q := range qs {
		out.attempted++
		if ans[i].status != 200 {
			out.failed++
		} else if m := exactMismatch(ans[i], truths[i]); m != "" {
			out.failed++
			out.wrong("exact replay item %d over HTTP: %s", i, m)
		}
		rep, n := replaySolve(tr, q)
		rounds += n
		if !sameOutcome(rep, truths[i]) {
			out.wrong("phase-by-phase replay of item %d differs from core.Solve", i)
		}
		if errors.Is(truths[i].err, core.ErrSaturated) {
			saturated++
		}
	}
	n := float64(exactReplayN)
	out.metrics["serve.exact_overhead_us"] = median(overhead)
	out.metrics["core.solve_ms_p50"] = quantile(solveMS, 0.5)
	out.metrics["core.solve_ms_p99"] = quantile(solveMS, 0.99)
	out.metrics["core.allocs_per_solve"] = float64(m1.Mallocs-m0.Mallocs) / n
	out.metrics["core.bytes_per_solve"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	out.metrics["core.saturated_ratio"] = float64(saturated) / n
	out.metrics["fixpoint.rounds_per_solve"] = float64(rounds) / n
	out.note("exact replay: %d items over HTTP, direct and phase by phase; all compared with core.Solve", exactReplayN)
	return nil
}
