package main

import (
	"math"
	"os"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. Moves records, for a per-layer
// metric, the end-to-end metric it should move and on which workload.
type metricDef struct {
	Name, Unit, Better, Moves string
}

// endToEnd are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer come from the traced run, which replays the seeded inputs of
// all three workloads through the layers (trace.overhead_ratio alone is
// specific to the workload named on the command line).
var perLayer = []metricDef{
	{"serve.overhead_us", "us", "lower", "op_p50_ms, ops_per_s on serve-auto"},
	{"serve.exact_overhead_us", "us", "lower", "op_p50_ms on serve-exact (by <2%)"},
	{"serve.cache_hit_ratio", "ratio", "higher", "op_p50_ms, ops_per_s on serve-auto"},
	{"serve.surface_ratio", "ratio", "higher", "op_p50_ms, ops_per_s on serve-auto"},
	{"surface.build_s", "s", "lower", "setup_s on serve-auto"},
	{"surface.eval_ns", "ns", "lower", "op_p50_ms on serve-auto"},
	{"surface.refusal_ratio", "ratio", "lower", "op_p50_ms on serve-auto"},
	{"surface.bad_accept_ratio", "ratio", "lower", "bad_accepts on serve-auto (reported, not in failed)"},
	{"surface.realised_err_p99", "ratio", "lower", "bad_accepts on serve-auto (reported, not in failed)"},
	{"core.prepare_us", "us", "lower", "op_p50_ms, op_p99_ms, ops_per_s on serve-exact"},
	{"core.assemble_us", "us", "lower", "op_p50_ms, op_p99_ms, ops_per_s on serve-exact"},
	{"core.iterate_us_per_round", "us", "lower", "op_p50_ms, op_p99_ms, ops_per_s on serve-exact"},
	{"core.solve_ms_p50", "ms", "lower", "op_p50_ms, ops_per_s on serve-exact"},
	{"core.solve_ms_p99", "ms", "lower", "op_p99_ms on serve-exact"},
	{"core.allocs_per_solve", "count", "lower", "op_p99_ms on serve-exact (GC)"},
	{"core.bytes_per_solve", "B", "lower", "op_p99_ms, max_rss_mb on serve-exact (GC)"},
	{"core.saturated_ratio", "ratio", "lower", "op_p50_ms on serve-exact (input mix)"},
	{"fixpoint.rounds_per_solve", "count", "lower", "op_p50_ms on serve-exact"},
	{"fixpoint.overhead_us_per_round", "us", "lower", "op_p50_ms on serve-exact"},
	{"sim.cycles", "count", "lower", "ops_per_s on sweep-figures"},
	{"sim.cycles_per_s", "1/s", "higher", "ops_per_s on sweep-figures"},
	{"sim.step_ns", "ns", "lower", "op_p50_ms, ops_per_s on sweep-figures"},
	{"sim.job_s_p50", "s", "lower", "op_p50_ms on sweep-figures"},
	{"sim.job_s_max", "s", "lower", "op_p99_ms, ops_per_s on sweep-figures"},
	{"sim.new_ms", "ms", "lower", "ops_per_s on sweep-figures"},
	{"experiments.sweep_s", "s", "lower", "ops_per_s on sweep-figures"},
	{"experiments.idle_ratio", "ratio", "lower", "ops_per_s on sweep-figures"},
	{"experiments.model_s", "s", "lower", "ops_per_s on sweep-figures"},
	{"trace.overhead_ratio", "ratio", "lower", "none (cost of the traced run itself)"},
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs is sorted in place). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// maxRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// medianSetup runs setup n times and returns the median duration; the
// caller keeps the last set-up state.
func medianSetup(n int, setup func(last bool) error) (float64, error) {
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := setup(i == n-1); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// writeFile writes data to dir/name, creating dir.
func writeFile(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(dir+"/"+name, data, 0o644)
}
