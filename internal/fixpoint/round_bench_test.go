package fixpoint

import (
	"fmt"
	"testing"
)

// BenchmarkRound measures the per-round cost of each scheme at the state
// sizes of hotspot-2d at k=16 (330) and k=32 (1178). The map is a cheap
// diagonal linear contraction with rates spread over (0, 0.999), one
// multiply-add per component, so the scheme's own arithmetic dominates;
// the near-unit rates keep every scheme iterating. One op is one round:
// solves of at most 100 rounds run back to back from the same start until
// b.N rounds are done, so Solve's entry cost is amortised over the rounds
// of each solve and B/op, allocs/op read per round.
func BenchmarkRound(b *testing.B) {
	for _, accel := range []Acceleration{AccelNone, AccelAnderson, AccelAitken} {
		for _, n := range []int{330, 1178} {
			b.Run(fmt.Sprintf("%v/n=%d", accel, n), func(b *testing.B) {
				rate := make([]float64, n)
				for i := range rate {
					rate[i] = 0.999 * float64(i+1) / float64(n)
				}
				f := func(in, out []float64) error {
					for i, x := range in {
						out[i] = rate[i]*x + 1
					}
					return nil
				}
				state := make([]float64, n)
				o := Options{Tolerance: 1e-300, Acceleration: accel}
				b.ReportAllocs()
				b.ResetTimer()
				for done := 0; done < b.N; {
					o.MaxIterations = min(100, b.N-done)
					clear(state)
					conv, _ := Solve(state, f, o)
					done += conv.Iterations
				}
			})
		}
	}
}
