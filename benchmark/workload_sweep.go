package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"kncube/internal/experiments"
	"kncube/internal/sim"
	"kncube/internal/telemetry"
)

// sweepPanelIDs is the sweep-figures panel subset: the h=70% panel of
// each figure, the cheapest two that between them cover both message
// lengths (the full six take about 42 s with 2 workers).
var sweepPanelIDs = []string{"fig1-h70", "fig2-h70"}

// sweepPanels returns the subset in the figure harness's order. Nothing
// here depends on the seed: the simulation seed must stay 1 for the CSVs
// to match the committed ones, and the panel order sets which jobs share
// the 2 workers, which moves the sweep's wall time and peak memory by
// about 10%, so it is fixed too.
func sweepPanels() []experiments.Panel {
	var ps []experiments.Panel
	for _, id := range sweepPanelIDs {
		p, err := experiments.PanelByID(id)
		if err != nil {
			panic(err) // the IDs above are the paper's panels
		}
		ps = append(ps, p)
	}
	return ps
}

// jobKey names one simulation job of a sweep.
type jobKey struct {
	panel string
	idx   int
}

// sweepRun is one completed panel sweep.
type sweepRun struct {
	wall     time.Duration
	manifest []experiments.RunManifest
	sims     map[jobKey]sim.Result
	panels   []experiments.PanelResult
}

// runSweep sweeps the panels as the figure harness does: 2 workers, the
// default budget, base seed 1.
func runSweep(ctx context.Context, panels []experiments.Panel) (*sweepRun, error) {
	var buf bytes.Buffer
	var mu sync.Mutex
	sims := map[jobKey]sim.Result{}
	sw := experiments.Sweep{
		Jobs:     clients,
		Budget:   experiments.DefaultSimBudget(),
		Manifest: telemetry.NewManifestWriter(&buf),
		Progress: func(p experiments.SweepProgress) {
			mu.Lock()
			sims[jobKey{p.Panel.ID, p.LambdaIdx}] = p.Result
			mu.Unlock()
		},
	}
	t0 := time.Now()
	res, err := sw.RunPanels(ctx, panels)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	man, err := telemetry.ReadJSONL[experiments.RunManifest](&buf)
	if err != nil {
		return nil, err
	}
	return &sweepRun{wall: wall, manifest: man, sims: sims, panels: res}, nil
}

// referenceCSVs reads the committed results/<panel>.csv files.
func referenceCSVs(root string, panels []experiments.Panel) (map[string][]byte, error) {
	ref := map[string][]byte{}
	for _, p := range panels {
		b, err := os.ReadFile(filepath.Join(root, "results", p.ID+".csv"))
		if err != nil {
			return nil, err
		}
		ref[p.ID] = b
	}
	return ref, nil
}

// checkSweep compares every swept panel's CSV with the committed one
// byte for byte; a sweep with any mismatch counts as one failed operation.
func checkSweep(out *outcome, run *sweepRun, ref map[string][]byte) {
	out.attempted++
	ok := true
	for _, pr := range run.panels {
		var b bytes.Buffer
		if err := experiments.WriteCSV(&b, pr.Points); err != nil {
			out.wrong("%s: rendering CSV: %v", pr.Panel.ID, err)
			ok = false
		} else if m := csvMismatch(b.Bytes(), ref[pr.Panel.ID]); m != "" {
			out.wrong("%s.csv %s", pr.Panel.ID, m)
			ok = false
		}
	}
	if !ok {
		out.failed++
	}
}

// warmUpSim is a short simulation run during set-up, so the timed sweeps
// do not pay for first-use heap growth.
func warmUpSim() error {
	p, err := experiments.PanelByID(sweepPanelIDs[0])
	if err != nil {
		return err
	}
	_, err = experiments.RunSim(p, p.Lambdas[4],
		experiments.SimBudget{WarmupCycles: 5000, MaxCycles: 200000, MinMeasured: 500, Seed: 1})
	return err
}

// runSweepFigures: the library sweep of the panel subset, repeated until
// the run has measured its seconds, each sweep checked against the
// committed CSVs.
func runSweepFigures(cfg config) (*outcome, error) {
	out := newOutcome()
	panels := sweepPanels()
	var ref map[string][]byte
	setup, err := medianSetup(setupReps, func(bool) error {
		var err error
		if ref, err = referenceCSVs(cfg.root, panels); err != nil {
			return err
		}
		return warmUpSim()
	})
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setup
	out.note("inputs seed=%d panels=%v (simulation base seed 1) sha256=%s",
		cfg.seed, sweepPanelIDs, inputsHash("sweep-figures", cfg.seed))
	ctx := context.Background()
	if cfg.trace {
		return out, traceRun(cfg, out, nil, nil, &sweepTrace{panels: panels, ref: ref})
	}

	var runs []*sweepRun
	var used time.Duration
	for used < seconds(cfg.seconds) {
		// Each sweep starts from a collected heap, as in a fresh figure
		// harness process, so the garbage of the set-up or of the sweep
		// before does not move max_rss_mb. The collection is not timed.
		runtime.GC()
		run, err := runSweep(ctx, panels)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
		used += run.wall
	}
	out.metrics["max_rss_mb"] = maxRSSMB()
	walls := make([]float64, len(runs))
	for i, run := range runs {
		walls[i] = float64(run.wall.Nanoseconds()) / 1e6
		checkSweep(out, run, ref)
	}
	out.samples = len(walls)
	out.metrics["op_p50_ms"] = quantile(walls, 0.5)
	out.metrics["op_p99_ms"] = quantile(walls, 0.99)
	out.metrics["ops_per_s"] = float64(len(walls)) / used.Seconds()
	out.note("%d sweeps of %d jobs in %.2fs; CSVs checked byte for byte against results/", len(runs),
		len(runs[0].manifest), used.Seconds())
	return out, nil
}
