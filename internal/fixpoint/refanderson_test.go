package fixpoint

// From-scratch-Gram reference implementation of Anderson mixing. This is
// the accelerator's earlier formulation: it keeps the raw (x, F(x))
// history, oldest first, and every round rebuilds the full m×m Gram matrix
// of residual differences, the right-hand side and the candidate
// component by component, O(m²·n) per round. The arithmetic of each Gram
// entry, of the regularisation, of the right-hand side and of every
// candidate component is verbatim; only the recycled vector pool is gone
// (history entries are plain copies, which changes no value).
//
// The differential test drives it in lockstep with the production
// accelState and asserts that every candidate is bit-identical, which pins
// the incremental-Gram rewrite's contract: it is a pure strength reduction
// with no observable effect on the iteration.

import "math"

type refAnderson struct {
	beta    float64
	window  int
	prevRes float64
	hasPrev bool
	xs, fs  [][]float64
	cand    []float64

	// Coverage counters for the differential test: rounds whose push
	// evicted the oldest history entry, and safeguard rejections.
	evictions, safeguardResets int
}

func newRefAnderson(window int, beta float64, n int) *refAnderson {
	return &refAnderson{beta: beta, window: window, cand: make([]float64, n)}
}

// step mirrors accelState.step for AccelAnderson: the residual-increase
// safeguard, then the least-squares extrapolation. A nil result means a
// damped step.
func (a *refAnderson) step(state, fx []float64) []float64 {
	res := resNorm(state, fx)
	if a.hasPrev && res > a.prevRes {
		a.safeguardResets++
		a.reset()
		a.prevRes = res
		return nil
	}
	a.prevRes = res
	a.hasPrev = true
	if !a.anderson(state, fx) {
		return nil
	}
	return a.cand
}

func (a *refAnderson) reset() {
	a.xs, a.fs = a.xs[:0], a.fs[:0]
}

func (a *refAnderson) push(x, fx []float64) {
	a.xs = append(a.xs, append([]float64(nil), x...))
	a.fs = append(a.fs, append([]float64(nil), fx...))
	if len(a.xs) > a.window+1 {
		a.evictions++
		copy(a.xs, a.xs[1:])
		copy(a.fs, a.fs[1:])
		a.xs = a.xs[:len(a.xs)-1]
		a.fs = a.fs[:len(a.fs)-1]
	}
}

func (a *refAnderson) anderson(state, fx []float64) bool {
	a.push(state, fx)
	m := len(a.xs) - 1 // number of difference columns
	if m < 1 {
		return false
	}
	n := len(state)
	dg := func(j, i int) float64 { // Δg_j at component i
		return (a.fs[j+1][i] - a.xs[j+1][i]) - (a.fs[j][i] - a.xs[j][i])
	}
	gcur := func(i int) float64 { // current residual g at component i
		return a.fs[m][i] - a.xs[m][i]
	}
	gram, rhs := make([]float64, m*m), make([]float64, m)
	diag := 0.0
	for j := 0; j < m; j++ {
		for k := j; k < m; k++ {
			s := 0.0
			for i := 0; i < n; i++ {
				s += dg(j, i) * dg(k, i)
			}
			gram[j*m+k], gram[k*m+j] = s, s
		}
		diag += gram[j*m+j]
		s := 0.0
		for i := 0; i < n; i++ {
			s += dg(j, i) * gcur(i)
		}
		rhs[j] = s
	}
	reg := 1e-12 * diag / float64(m)
	if reg <= 0 || math.IsNaN(reg) || math.IsInf(reg, 0) {
		a.reset()
		return false
	}
	for j := 0; j < m; j++ {
		gram[j*m+j] += reg
	}
	gamma, ok := solveSPD(gram, rhs, m)
	if !ok {
		a.reset()
		return false
	}
	for i := 0; i < n; i++ {
		v := a.xs[m][i] + a.beta*gcur(i)
		for j := 0; j < m; j++ {
			dx := a.xs[j+1][i] - a.xs[j][i]
			v -= gamma[j] * (dx + a.beta*dg(j, i))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			a.reset()
			return false
		}
		a.cand[i] = v
	}
	return true
}
