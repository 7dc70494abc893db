// Command benchmark is the repository benchmark: it drives the latency
// service, the analytical solvers and the figure sweep through their
// public entry points, checks every answer, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics of a traced replay).
//
//	benchmark -workload serve-exact|serve-auto|sweep-figures [-seed n] [-seconds s] [-trace 0|1]
//
// Human-readable report lines come first; the last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// A workload is one named input set run against the program.
type workload struct {
	name string
	// op names the operation whose latency and rate the op_* metrics
	// report.
	op  string
	run func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"serve-exact", "one POST /v1/solve round trip (exact mode)", runServeExact},
	{"serve-auto", "one POST /v1/solve round trip (auto mode)", runServeAuto},
	{"sweep-figures", "one sweep of the two panels (16 simulation jobs)", runSweepFigures},
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the repository checkout (the committed results/ live there).
	root string
	// outDir receives the traced run's span records.
	outDir string
}

// outcome is what a workload reports.
type outcome struct {
	correct           bool
	attempted, failed int64
	// samples is the op latency sample count behind op_p50_ms/op_p99_ms.
	samples int
	metrics map[string]float64
	// notes are extra report lines (input hash, pool size, check results).
	notes []string
	// wrongs counts failed correctness checks; only the first few are
	// noted.
	wrongs int
}

func newOutcome() *outcome {
	return &outcome{correct: true, metrics: map[string]float64{}}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// wrong records a failed check that makes the output incorrect.
func (o *outcome) wrong(format string, args ...any) {
	o.correct = false
	if o.wrongs++; o.wrongs <= 10 {
		o.note("CHECK FAILED: "+format, args...)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: serve-exact, serve-auto or sweep-figures")
	seed := fs.Int64("seed", 1, "workload seed (inputs are a pure function of it)")
	seconds := fs.Float64("seconds", 10, "measured duration of the run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need -workload (%s), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1, root: ".", outDir: ".bench_build/traces"}

	start := time.Now()
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	report(stdout, cfg, w, out, time.Since(start))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the environment, the notes, every metric by name and unit
// with what it should move, and the JSON result line.
func report(w io.Writer, cfg config, wl *workload, out *outcome, wall time.Duration) {
	mode := "end-to-end (untraced)"
	list := endToEnd
	if cfg.trace {
		mode = "per-layer (traced replay)"
		list = perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  mode %s  wall %.1fs\n",
		cfg.workload, cfg.seed, cfg.seconds, mode, wall.Seconds())
	fmt.Fprintf(w, "env cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(w, "op = %s\n", wl.op)
	for _, n := range out.notes {
		fmt.Fprintln(w, n)
	}
	failRatio := 0.0
	if out.attempted > 0 {
		failRatio = float64(out.failed) / float64(out.attempted)
	}
	fmt.Fprintf(w, "fail_ratio %.6f (failed %d of %d attempted)  correct %v\n",
		failRatio, out.failed, out.attempted, out.correct)

	res := resultLine{Correct: out.correct, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range list {
		v, ok := out.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(w, "%-34s not measured\n", m.Name)
			continue
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		extra := ""
		if m.Name == "op_p50_ms" || m.Name == "op_p99_ms" {
			extra = fmt.Sprintf("  (n=%d)", out.samples)
		}
		if m.Moves != "" {
			extra += "  moves " + m.Moves
		}
		fmt.Fprintf(w, "%-34s %14.6g %-6s%s\n", m.Name, v, m.Unit, extra)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
