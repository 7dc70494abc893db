package core

import (
	"bufio"
	"errors"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"kncube/internal/fixpoint"

	"kncube/internal/stats"
)

func TestSolversRegistered(t *testing.T) {
	want := []string{"bidirectional-2d", "hotspot-2d", "hypercube", "ndim", "uniform"}
	got := Solvers()
	if len(got) != len(want) {
		t.Fatalf("Solvers() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Solvers() = %v, want %v", got, want)
		}
	}
}

func TestUnknownSolverName(t *testing.T) {
	_, err := Solve("no-such-model", Spec{K: 8, V: 2, Lm: 16, Lambda: 1e-4}, Options{})
	if err == nil {
		t.Fatal("unknown solver name should fail")
	}
	if !strings.Contains(err.Error(), "no-such-model") {
		t.Errorf("error should name the unknown solver: %v", err)
	}
	// The error lists the registered names so the caller can self-correct.
	if !strings.Contains(err.Error(), "hotspot-2d") {
		t.Errorf("error should list registered solvers: %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	Register("hotspot-2d", func(Spec, Options) (Solver, error) { return nil, nil })
}

func TestRegisterRejectsBadArguments(t *testing.T) {
	for name, reg := range map[string]func(){
		"empty name":  func() { Register("", func(Spec, Options) (Solver, error) { return nil, nil }) },
		"nil factory": func() { Register("x-test-nil", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			reg()
		}()
	}
}

// goldenSpec is the common operating point the regression latencies below
// are pinned at (the first published load point of panel fig1-h20; the
// hypercube takes the 2-ary 8-cube of comparable size, the uniform
// baseline the same network without a hot-spot class).
func goldenSpec(name string) Spec {
	switch name {
	case "uniform":
		return Spec{K: 16, V: 2, Lm: 32, H: 0, Lambda: 7.5e-5}
	case "hypercube":
		return Spec{K: 2, Dims: 8, V: 2, Lm: 32, H: 0.2, Lambda: 7.5e-5}
	default:
		return Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 7.5e-5}
	}
}

// Golden regression: every registered solver's latency at one fixed
// operating point, pinned to within 1e-9. A deliberate model change must
// update these constants (and, for hotspot-2d, regenerate results/*.csv).
func TestGoldenLatencies(t *testing.T) {
	golden := map[string]float64{
		"hotspot-2d":       50.27906133459399,
		"bidirectional-2d": 40.892751665896398,
		"uniform":          49.472803116714566,
		"hypercube":        36.134133208947404,
		"ndim":             49.374738343198075,
	}
	for _, name := range Solvers() {
		want, ok := golden[name]
		if !ok {
			t.Errorf("no golden latency recorded for solver %q — add one here", name)
			continue
		}
		r, err := Solve(name, goldenSpec(name), Options{})
		if err != nil {
			t.Errorf("Solve(%q): %v", name, err)
			continue
		}
		if math.Abs(r.Latency-want) > 1e-9 {
			t.Errorf("Solve(%q) latency = %.15g, want %.15g (|diff| %.3g)",
				name, r.Latency, want, math.Abs(r.Latency-want))
		}
		if r.Convergence.Iterations <= 0 || !r.Convergence.Converged {
			t.Errorf("Solve(%q) convergence not populated: %+v", name, r.Convergence)
		}
		if r.Detail == nil {
			t.Errorf("Solve(%q) missing Detail", name)
		}
	}
}

// The hotspot-2d golden constant must itself agree with the published CSV
// (results/fig1-h20.csv, first data row) to the file's printed precision —
// the cross-check that ties the in-repo regression to the published
// reproducibility contract.
func TestGoldenMatchesPublishedCSV(t *testing.T) {
	f, err := os.Open("../../results/fig1-h20.csv")
	if err != nil {
		t.Skipf("published CSV not available: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() { // header
		t.Fatal("empty CSV")
	}
	if !sc.Scan() {
		t.Fatal("CSV has no data rows")
	}
	fields := strings.Split(sc.Text(), ",")
	lambda, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		t.Fatal(err)
	}
	want, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve("hotspot-2d", Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: lambda}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The CSV prints 4 decimals; allow half an ulp of that precision.
	if math.Abs(r.Latency-want) > 5e-5+1e-12 {
		t.Errorf("hotspot-2d at lambda=%g: latency %.6f, published %.4f", lambda, r.Latency, want)
	}
}

// The Trace callback must fire exactly once per iteration for every
// variant solved through the registry, and the final record must agree
// with the Convergence summary.
func TestTraceFiresOncePerIteration(t *testing.T) {
	for _, name := range Solvers() {
		var records []fixpoint.TraceRecord
		opts := Options{FixPoint: fixpoint.Options{
			Trace: func(r fixpoint.TraceRecord) { records = append(records, r) },
		}}
		res, err := Solve(name, goldenSpec(name), opts)
		if err != nil {
			t.Errorf("Solve(%q): %v", name, err)
			continue
		}
		if len(records) != res.Convergence.Iterations {
			t.Errorf("%q: %d trace records, want %d (one per iteration)",
				name, len(records), res.Convergence.Iterations)
			continue
		}
		last := records[len(records)-1]
		if last.Iteration != res.Convergence.Iterations {
			t.Errorf("%q: last trace iteration %d, want %d", name, last.Iteration, res.Convergence.Iterations)
		}
		if !stats.ApproxEqual(last.MaxRelDelta, res.Convergence.Residual, 0, 0) {
			t.Errorf("%q: last trace delta %g, want residual %g", name, last.MaxRelDelta, res.Convergence.Residual)
		}
		for i, r := range records {
			if r.Iteration != i+1 {
				t.Errorf("%q: record %d has iteration %d", name, i, r.Iteration)
				break
			}
			if r.NonFiniteIndex != -1 {
				t.Errorf("%q: converged run reported non-finite index %d", name, r.NonFiniteIndex)
				break
			}
		}
	}
}

// A solve classified as saturated because the iteration budget ran out
// must still have delivered one trace record per completed round — the
// observability layer is exactly what a caller needs to diagnose it.
func TestTraceSurvivesSaturation(t *testing.T) {
	calls := 0
	opts := Options{FixPoint: fixpoint.Options{
		Tolerance: 1e-9, MaxIterations: 25, Damping: 0.5,
		Trace: func(fixpoint.TraceRecord) { calls++ },
	}}
	// 3e-4 converges in ~200 rounds under the default budget, so 25 rounds
	// exhaust the budget and classify as saturation.
	s := Spec{K: 16, Dims: 2, V: 2, Lm: 32, H: 0.2, Lambda: 3e-4}
	_, err := Solve("hotspot-2d", s, opts)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("exhausted iteration budget should classify as saturation, got %v", err)
	}
	if calls != 25 {
		t.Errorf("got %d trace records, want one per round (25)", calls)
	}
}

// Every typed entry point must agree exactly with its registry route — the
// wrappers and the registry share one driver.
func TestTypedEntryPointsMatchRegistry(t *testing.T) {
	spec := goldenSpec("hotspot-2d")
	reg, err := Solve("hotspot-2d", spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	typed, err := SolveHotSpot(Params{K: spec.K, V: spec.V, Lm: spec.Lm, H: spec.H, Lambda: spec.Lambda}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ApproxEqual(typed.Latency, reg.Latency, 0, 0) {
		t.Errorf("SolveHotSpot latency %g != registry latency %g", typed.Latency, reg.Latency)
	}
	if typed.Convergence != reg.Convergence {
		t.Errorf("SolveHotSpot convergence %+v != registry %+v", typed.Convergence, reg.Convergence)
	}

	bi, err := SolveBidirectional(Params{K: spec.K, V: spec.V, Lm: spec.Lm, H: spec.H, Lambda: spec.Lambda}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	biReg, err := Solve("bidirectional-2d", spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ApproxEqual(bi.Latency, biReg.Latency, 0, 0) {
		t.Errorf("SolveBidirectional latency %g != registry latency %g", bi.Latency, biReg.Latency)
	}
}

// Factory compatibility rules: specs a variant cannot represent are
// rejected with a clear error rather than silently reinterpreted.
func TestFactoryCompatibility(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"uniform", Spec{K: 16, V: 2, Lm: 32, H: 0.2, Lambda: 1e-4}},     // has a hot-spot class
		{"hypercube", Spec{K: 16, Dims: 2, V: 2, Lm: 32, Lambda: 1e-4}},  // not 2-ary
		{"hotspot-2d", Spec{K: 16, Dims: 3, V: 2, Lm: 32, Lambda: 1e-4}}, // not 2-D
		{"bidirectional-2d", Spec{K: 16, Dims: 3, V: 2, Lm: 32, Lambda: 1e-4}},
	}
	for _, tc := range cases {
		if _, err := Solve(tc.name, tc.spec, Options{}); err == nil {
			t.Errorf("Solve(%q, %+v) should reject the spec", tc.name, tc.spec)
		}
	}
}

// TestIterateSteadyStateAllocFree pins the solvers' round allocation
// contract: once Prepare has sized the per-solver scratch, a fixed-point
// round (Iterate) allocates nothing, for every registered variant.
func TestIterateSteadyStateAllocFree(t *testing.T) {
	for _, name := range Solvers() {
		s, err := NewSolver(name, goldenSpec(name), Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.Prepare()
		in := make([]float64, s.StateSize())
		out := make([]float64, len(in))
		s.InitState(in)
		if err := s.Iterate(in, out); err != nil {
			t.Fatalf("%s: Iterate: %v", name, err)
		}
		n := testing.AllocsPerRun(100, func() {
			if err := s.Iterate(in, out); err != nil {
				t.Fatal(err)
			}
		})
		if !stats.IsZero(n) {
			t.Errorf("%s: Iterate allocates %v objects/round, want 0", name, n)
		}
	}
}
