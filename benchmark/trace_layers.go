package main

import (
	"context"
	"math"
	"time"

	"kncube/internal/experiments"
	"kncube/internal/sim"
	"kncube/internal/telemetry/span"
	"kncube/internal/topology"
	"kncube/internal/traffic"
)

// autoLayers replays serve-auto: the reference surfaces built directly
// (timed), a timed direct Eval of every pool point, and the first
// autoReplayN draws sent by one client under client spans and checked as
// in the timed run. env is the serve-auto set-up when that is the named
// workload; otherwise the set-up is made here.
func autoLayers(cfg config, out *outcome, tr tracer, env *autoEnv) error {
	if env == nil {
		var err error
		if env, err = setupAuto(cfg.seed); err != nil {
			return err
		}
		defer env.h.close()
	}
	ref, err := env.reference()
	if err != nil {
		return err
	}
	out.metrics["surface.build_s"] = ref.buildS

	// Direct lookups: per pool point, the mean of evalReps timed Evals.
	evalNS := make([]float64, len(env.pool))
	var accepted, refused, bad int
	var errs []float64
	for i, q := range env.pool {
		s := ref.surfaces[q.Spec.Lm]
		t0 := time.Now()
		for r := 0; r < evalReps; r++ {
			_, _ = s.Eval(q.Spec.H, q.Spec.Lambda)
		}
		evalNS[i] = float64(time.Since(t0).Nanoseconds()) / evalReps
		lk, ok := ref.eval(q)
		if !ok {
			refused++
			continue
		}
		accepted++
		e := realisedError(lk.Latency, ref.truth[i])
		if e > surfaceBound {
			bad++
		}
		if !math.IsInf(e, 1) {
			errs = append(errs, e)
		}
	}
	out.metrics["surface.eval_ns"] = median(append([]float64(nil), evalNS...))
	out.metrics["surface.refusal_ratio"] = float64(refused) / float64(len(env.pool))
	if accepted > 0 {
		out.metrics["surface.bad_accept_ratio"] = float64(bad) / float64(accepted)
		out.metrics["surface.realised_err_p99"] = quantile(errs, 0.99)
	}
	out.note("surface: %d of %d pool points accepted, %d of those >%g%% from core.Solve",
		accepted, len(env.pool), bad, surfaceBound*100)

	// One client over the draw sequence. The direct work behind each
	// answer is the Eval time for a surface answer and none for a
	// cache-served one, so the difference is the serve layer's own cost.
	tallies := [][]autoTally{make([]autoTally, poolSize)}
	overhead := make([]float64, autoReplayN)
	for i := range overhead {
		p := autoDraw(cfg.seed, i)
		_, sp := tr.Start(context.Background(), "serve.request")
		rt, a, err := env.h.post(env.pool[p].Body)
		sp.End()
		if err != nil {
			return err
		}
		tallies[0][p].add(a)
		direct := 0.0
		if a.source == srcSurface {
			direct = evalNS[p]
		}
		overhead[i] = (float64(rt.Nanoseconds()) - direct) / 1e3
	}
	n := checkAutoLoop(out, tallies, env.pool, ref)

	out.metrics["serve.overhead_us"] = median(overhead)
	out.metrics["serve.surface_ratio"] = float64(n.surface) / autoReplayN
	if n.exact > 0 {
		out.metrics["serve.cache_hit_ratio"] = float64(n.hits) / float64(n.exact)
	}
	return nil
}

// tracedSweep sweeps the panels under an "experiments.sweep" span; the
// sweep engine hangs its own sweep.model and sweep.sim spans below it.
// The CSVs are checked.
func tracedSweep(tr tracer, panels []experiments.Panel, ref map[string][]byte, out *outcome) (*sweepRun, error) {
	ctx, root := tr.Start(context.Background(), "experiments.sweep")
	run, err := runSweep(ctx, panels)
	root.End()
	if err != nil {
		return nil, err
	}
	checkSweep(out, run, ref)
	return run, nil
}

// sweepLayers derives the experiments and sim metrics from a traced
// sweep (the named workload's, or one made here) and replays each of its
// simulation jobs as sim.New and Run under spans; every replayed result
// must equal the sweep's bit for bit.
func sweepLayers(cfg config, out *outcome, tr tracer, sw *sweepTrace, run *sweepRun) error {
	panels := sweepPanels()
	var ref map[string][]byte
	if sw != nil {
		ref = sw.ref
	} else {
		var err error
		if ref, err = referenceCSVs(cfg.root, panels); err != nil {
			return err
		}
	}
	if run == nil {
		var err error
		if run, err = tracedSweep(tr, panels, ref, out); err != nil {
			return err
		}
	}

	var jobWall, cycles float64
	var walls []float64
	for _, m := range run.manifest {
		jobWall += m.WallSeconds
		cycles += float64(m.Cycles)
		walls = append(walls, m.WallSeconds)
	}
	out.metrics["experiments.sweep_s"] = run.wall.Seconds()
	out.metrics["experiments.idle_ratio"] = 1 - jobWall/(clients*run.wall.Seconds())
	out.metrics["sim.cycles"] = cycles
	out.metrics["sim.cycles_per_s"] = cycles / run.wall.Seconds()
	out.metrics["sim.job_s_p50"] = quantile(walls, 0.5)
	out.metrics["sim.job_s_max"] = quantile(walls, 1)

	byID := map[string]experiments.Panel{}
	for _, p := range panels {
		byID[p.ID] = p
	}
	jobs := run.manifest
	mismatch := make([]bool, len(jobs))
	parallel(len(jobs), func(i int) {
		m := jobs[i]
		res, err := replayJob(tr, byID[m.Panel], m.LambdaIdx)
		want := run.sims[jobKey{m.Panel, m.LambdaIdx}]
		mismatch[i] = err != nil || !sameSim(res, want)
	})
	for i, bad := range mismatch {
		if bad {
			out.wrong("sim replay of %s job %d differs from the sweep", jobs[i].Panel, jobs[i].LambdaIdx)
		}
	}
	out.note("sweep: %d jobs in %.2fs, each replayed as sim.New + Run and compared bit for bit",
		len(jobs), run.wall.Seconds())
	return nil
}

// replayJob rebuilds one sweep job's network exactly as the sweep engine
// does and runs it under sim.new and sim.run spans.
func replayJob(tr tracer, p experiments.Panel, idx int) (sim.Result, error) {
	ctx, root := tr.Start(context.Background(), "sim.job", span.String("panel", p.ID), span.Int("idx", idx))
	defer root.End()
	budget := experiments.DefaultSimBudget()
	_, nsp := span.StartChild(ctx, "sim.new")
	cube, err := topology.New(p.K, 2)
	if err != nil {
		return sim.Result{}, err
	}
	pattern, err := traffic.NewHotSpot(cube, cube.FromCoords([]int{p.K / 2, p.K / 2}), p.H)
	if err != nil {
		return sim.Result{}, err
	}
	nw, err := sim.New(sim.Config{
		K: p.K, Dims: 2, VCs: p.V, MsgLen: p.Lm, Lambda: p.Lambdas[idx], Pattern: pattern,
		Seed: experiments.JobSeed(budget.Seed, p.ID, idx, 0),
	})
	nsp.End()
	if err != nil {
		return sim.Result{}, err
	}
	_, rsp := span.StartChild(ctx, "sim.run")
	res, err := nw.Run(sim.RunOptions{
		WarmupCycles: budget.WarmupCycles, MaxCycles: budget.MaxCycles, MinMeasured: budget.MinMeasured,
	})
	rsp.SetAttr("cycles", res.Cycles)
	rsp.End()
	return res, err
}

// sameSim compares the statistics the figures are drawn from, bit for bit.
func sameSim(a, b sim.Result) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.MeanLatency, b.MeanLatency) && eq(a.CI95, b.CI95) && eq(a.MeanHot, b.MeanHot) &&
		a.Cycles == b.Cycles && a.Measured == b.Measured && a.Saturated == b.Saturated
}

// spanMetrics derives the span-based per-layer metrics. A metric whose
// spans are missing comes out NaN and is reported as not measured.
func spanMetrics(out *outcome, recs []span.Record) {
	durs := map[string][]float64{} // ns, by span name
	var rounds, iterateNS, fixpointNS, modelNS float64
	var stepNS []float64
	for _, r := range recs {
		d := float64(r.Duration)
		durs[r.Name] = append(durs[r.Name], d)
		switch r.Name {
		case "fixpoint.solve":
			n, _ := r.Attrs["rounds"].(int64)
			it, _ := r.Attrs["iterate_ns"].(int64)
			rounds += float64(n)
			iterateNS += float64(it)
			fixpointNS += d
		case "sim.run":
			if c, ok := r.Attrs["cycles"].(int64); ok && c > 0 {
				stepNS = append(stepNS, d/float64(c))
			}
		case "sweep.model":
			modelNS += d
		}
	}
	out.metrics["core.prepare_us"] = median(durs["core.prepare"]) / 1e3
	out.metrics["core.assemble_us"] = median(durs["core.assemble"]) / 1e3
	out.metrics["core.iterate_us_per_round"] = iterateNS / rounds / 1e3
	out.metrics["fixpoint.overhead_us_per_round"] = (fixpointNS - iterateNS) / rounds / 1e3
	out.metrics["sim.new_ms"] = median(durs["sim.new"]) / 1e6
	out.metrics["sim.step_ns"] = median(stepNS)
	if len(durs["sweep.model"]) > 0 {
		out.metrics["experiments.model_s"] = modelNS / 1e9
	}
}
