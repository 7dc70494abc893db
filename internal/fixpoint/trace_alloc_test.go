package fixpoint

import "testing"

// TestNilRoutedTraceAddsNoAllocations pins the contract the serve tracing
// layer relies on: installing a Trace callback that routes through a nil
// indirection (the hook-variable pattern — the callback is captured at
// prepare time, the span recorder only exists per solve) costs zero
// additional allocations per Solve compared to no callback at all. The
// TraceRecord is passed by value and must not escape.
func TestNilRoutedTraceAddsNoAllocations(t *testing.T) {
	// A 4-variable contraction with a comfortable fixed point; ~20 damped
	// rounds at the default tolerance.
	f := func(in, out []float64) error {
		for i := range in {
			out[i] = 0.5*in[i] + float64(i+1)
		}
		return nil
	}
	solveWith := func(opts Options) func() {
		state := make([]float64, 4)
		return func() {
			for i := range state {
				state[i] = 0
			}
			if _, err := Solve(state, f, opts); err != nil {
				t.Fatal(err)
			}
		}
	}

	bare := testing.AllocsPerRun(100, solveWith(Options{}))

	var round func(TraceRecord) // nil: the sampled-out / untraced case
	routed := Options{Trace: func(tr TraceRecord) {
		if round != nil {
			round(tr)
		}
	}}
	withHook := testing.AllocsPerRun(100, solveWith(routed))

	//lint:ignore floateq alloc counts are small integers; exact equality is the contract
	if withHook != bare {
		t.Errorf("nil-routed Trace changes Solve allocations: %v with hook, %v bare", withHook, bare)
	}
}

// TestSolveAllocationsIndependentOfRounds pins that every scheme sizes its
// scratch once, at Solve entry: a 3-round budget, which stops before the
// Anderson history or the Aitken chain has filled, allocates exactly as
// much as a 300-round budget that evicts, resets and rolls back many times.
func TestSolveAllocationsIndependentOfRounds(t *testing.T) {
	f, x0 := seededContraction(5, 12, true)
	for _, accel := range []Acceleration{AccelNone, AccelAnderson, AccelAitken} {
		var conv Convergence
		allocs := func(budget int) float64 {
			state := make([]float64, len(x0))
			o := Options{Tolerance: 1e-13, MaxIterations: budget, Damping: 0.5, Acceleration: accel}
			return testing.AllocsPerRun(20, func() {
				copy(state, x0)
				conv, _ = Solve(state, f, o)
			})
		}
		short := allocs(3)
		long := allocs(300)
		if conv.Iterations < 20 || (accel != AccelNone && conv.AcceleratedRounds == 0) {
			t.Fatalf("%v: the 300-round budget ran only %d rounds (%d accelerated)",
				accel, conv.Iterations, conv.AcceleratedRounds)
		}
		//lint:ignore floateq alloc counts are small integers; exact equality is the contract
		if short != long {
			t.Errorf("%v: Solve allocates %v objects with a 3-round budget, %v with 300", accel, short, long)
		}
	}
}
