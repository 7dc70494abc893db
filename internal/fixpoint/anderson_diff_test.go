package fixpoint

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

var errOutsideBox = errors.New("outside the map's domain")

// seededContraction returns a seeded nonlinear contraction on n variables
// and the state to start it from. The smooth family is
//
//	F(x)_i = b_i + Σ_j a_ij (0.6 x_j + 0.4 sin x_j),  Σ_j a_ij = 0.97,
//
// with a_ij ≥ 0 and b_i > 0, so F is monotone with Lipschitz constant 0.97
// and damped iterates from 0 rise monotonically to the fixed point x*. The
// map errors on any input above x* + 1e-3·x*, a box that damped steps never
// leave, so every error follows an accelerated step that overshot and is
// rolled back. The rough family scales the smooth sum by 0.8 and adds
// Σ_j c_ij sin(8 x_j) with signed Σ_j |c_ij| = 0.02 (Lipschitz ≤ 0.936).
// From a random start in [-30, 30]ⁿ its ripples break Anderson's linear
// model often enough to trip the residual-increase safeguard. It has no
// error box, since its damped iterates need not be monotone.
func seededContraction(seed int64, n int, rough bool) (Map, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a, b := make([]float64, n*n), make([]float64, n)
	for i := 0; i < n; i++ {
		row := a[i*n : (i+1)*n]
		sum := 0.0
		for j := range row {
			row[j] = rng.Float64()
			sum += row[j]
		}
		for j := range row {
			row[j] *= 0.97 / sum
		}
		b[i] = 0.5 + rng.Float64()
	}
	if rough {
		c := make([]float64, n*n)
		for i := 0; i < n; i++ {
			row := c[i*n : (i+1)*n]
			sum := 0.0
			for j := range row {
				row[j] = rng.Float64() - 0.5
				sum += math.Abs(row[j])
			}
			for j := range row {
				row[j] *= 0.02 / sum
			}
		}
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = 60 * (rng.Float64() - 0.5)
		}
		return func(in, out []float64) error {
			for i := 0; i < n; i++ {
				s := b[i]
				for j, x := range in {
					s += 0.8*a[i*n+j]*(0.6*x+0.4*math.Sin(x)) + c[i*n+j]*math.Sin(8*x)
				}
				out[i] = s
			}
			return nil
		}, x0
	}
	raw := func(in, out []float64) {
		for i := 0; i < n; i++ {
			s := b[i]
			for j, x := range in {
				s += a[i*n+j] * (0.6*x + 0.4*math.Sin(x))
			}
			out[i] = s
		}
	}
	fix, tmp := make([]float64, n), make([]float64, n)
	for round := 0; round < 5000; round++ {
		raw(fix, tmp)
		copy(fix, tmp)
	}
	limit := make([]float64, n)
	for i, x := range fix {
		limit[i] = x + 1e-3*x
	}
	return func(in, out []float64) error {
		for i, x := range in {
			if x > limit[i] {
				return errOutsideBox
			}
		}
		raw(in, out)
		return nil
	}, make([]float64, n)
}

// TestAndersonMatchesReferenceBitwise drives the production accelerator and
// the from-scratch-Gram reference (refanderson_test.go) in lockstep through
// Solve's round logic, at every window from 1 to 8, and asserts that every
// Anderson candidate and the final state agree bit for bit. The runs are
// required to cover history eviction, residual-increase resets and
// map-error rollbacks. The lockstep loop's final state and round count are
// checked against Solve itself, so the loop cannot drift from Solve.
func TestAndersonMatchesReferenceBitwise(t *testing.T) {
	const n = 12
	for w := 1; w <= 8; w++ {
		var candidates, evictions, safeguards, rollbacks int
		for seed := int64(1); seed <= 8; seed++ {
			f, x0 := seededContraction(seed, n, seed > 4)
			o := Options{Tolerance: 1e-13, MaxIterations: 400, Damping: 0.5,
				Acceleration: AccelAnderson, Window: w}
			acc := newAccelState(AccelAnderson, w, o.Damping, n)
			ref := newRefAnderson(w, o.Damping, n)

			state := append([]float64(nil), x0...)
			next := make([]float64, n)
			rollback, rollbackF := make([]float64, n), make([]float64, n)
			lastAccel, converged, iters := false, false, 0
			for iter := 1; iter <= o.MaxIterations && !converged; iter++ {
				iters = iter
				if err := f(state, next); err != nil {
					if !lastAccel {
						t.Fatalf("w=%d seed=%d round %d: map error after a damped step: %v", w, seed, iter, err)
					}
					copy(state, rollback)
					copy(next, rollbackF)
					acc.reset()
					ref.reset()
					lastAccel = false
					rollbacks++
				} else {
					cand, undo := acc.step(state, next, lastAccel)
					want := ref.step(state, next)
					if undo {
						t.Fatalf("w=%d seed=%d round %d: Anderson asked to undo", w, seed, iter)
					}
					if (cand == nil) != (want == nil) {
						t.Fatalf("w=%d seed=%d round %d: candidate present %v, reference %v",
							w, seed, iter, cand != nil, want != nil)
					}
					if cand != nil {
						candidates++
						for i := range cand {
							if math.Float64bits(cand[i]) != math.Float64bits(want[i]) {
								t.Fatalf("w=%d seed=%d round %d: cand[%d] = %v, reference %v",
									w, seed, iter, i, cand[i], want[i])
							}
						}
						copy(rollback, state)
						copy(rollbackF, next)
						converged = maxRelChange(state, cand) <= o.Tolerance
						copy(state, cand)
						lastAccel = true
						continue
					}
				}
				nv := make([]float64, n)
				for i := range state {
					nv[i] = (1-o.Damping)*state[i] + o.Damping*next[i]
				}
				converged = maxRelChange(state, nv) <= o.Tolerance
				copy(state, nv)
				lastAccel = false
			}
			if !converged {
				t.Fatalf("w=%d seed=%d: lockstep run did not converge in %d rounds", w, seed, iters)
			}
			evictions += ref.evictions
			safeguards += ref.safeguardResets

			got := append([]float64(nil), x0...)
			conv, err := Solve(got, f, o)
			if err != nil {
				t.Fatalf("w=%d seed=%d: Solve: %v", w, seed, err)
			}
			if conv.Iterations != iters {
				t.Errorf("w=%d seed=%d: Solve took %d rounds, lockstep loop %d", w, seed, conv.Iterations, iters)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(state[i]) {
					t.Errorf("w=%d seed=%d: Solve state[%d] = %v, lockstep loop %v", w, seed, i, got[i], state[i])
				}
			}
		}
		t.Logf("w=%d: %d candidates, %d evictions, %d safeguard resets, %d rollbacks",
			w, candidates, evictions, safeguards, rollbacks)
		if candidates == 0 || evictions == 0 || safeguards == 0 || rollbacks == 0 {
			t.Errorf("w=%d: coverage gap: %d candidates, %d evictions, %d safeguard resets, %d rollbacks",
				w, candidates, evictions, safeguards, rollbacks)
		}
	}
}

// maxRelChange is Solve's convergence measure for the update from x to y.
func maxRelChange(x, y []float64) float64 {
	max := 0.0
	for i := range x {
		den := math.Abs(x[i])
		if den < 1 {
			den = 1
		}
		if r := math.Abs(y[i]-x[i]) / den; r > max {
			max = r
		}
	}
	return max
}
