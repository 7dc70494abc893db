package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"kncube/internal/fixpoint"
)

// solveBitsCase is one point of the bit-identity grid: a registered
// variant, its spec and the option knobs that change the arithmetic.
type solveBitsCase struct {
	name  string
	spec  Spec
	accel fixpoint.Acceleration
	block BlockingForm
}

// solveBitsLambdas spans light load to well past saturation for every
// shape in the grid: a geometric axis with a ratio of 2.
var solveBitsLambdas = []float64{2e-6, 8e-6, 3.2e-5, 6.4e-5, 1.28e-4, 2.56e-4, 5.12e-4, 1.024e-3, 2.048e-3}

// solveBitsCases enumerates the grid. Every variant is crossed with its
// valid sizes, V ∈ {1, 2, 4}, Lm ∈ {32, 100}, h across [0.1, 0.7], the
// λ axis and the three acceleration schemes under the default blocking
// form (the 2-D solvers at k = 32 with V = 2 and Lm = 32 only); every
// BlockingForm is then crossed with every variant at a smaller set of
// shapes.
func solveBitsCases() []solveBitsCase {
	type shape struct {
		name       string
		k, dims, v int
	}
	var shapes []shape
	for _, v := range []int{1, 2, 4} {
		for _, k := range []int{4, 8, 16, 32} {
			// The 2-D solvers' rounds cost O(k²): k = 32 runs at V = 2 only.
			if v >= 2 && (k < 32 || v == 2) {
				shapes = append(shapes,
					shape{"hotspot-2d", k, 2, v},
					shape{"bidirectional-2d", k, 2, v})
			}
			if v >= 2 {
				shapes = append(shapes, shape{"ndim", k, 2, v})
			}
			shapes = append(shapes, shape{"uniform", k, 2, v})
		}
		for _, dims := range []int{3, 6, 10} {
			shapes = append(shapes, shape{"hypercube", 2, dims, v})
		}
		if v >= 2 {
			shapes = append(shapes, shape{"ndim", 4, 3, v}, shape{"ndim", 8, 3, v})
		}
	}
	hs := func(name string) []float64 {
		if name == "uniform" {
			return []float64{0}
		}
		return []float64{0.1, 0.4, 0.7}
	}
	accels := []fixpoint.Acceleration{fixpoint.AccelNone, fixpoint.AccelAnderson, fixpoint.AccelAitken}
	var cases []solveBitsCase
	for _, sh := range shapes {
		for _, lm := range []int{32, 100} {
			if sh.k == 32 && sh.name != "ndim" && sh.name != "uniform" && lm != 32 {
				continue
			}
			for _, h := range hs(sh.name) {
				for _, lam := range solveBitsLambdas {
					for _, a := range accels {
						cases = append(cases, solveBitsCase{
							name:  sh.name,
							spec:  Spec{K: sh.k, Dims: sh.dims, V: sh.v, Lm: lm, H: h, Lambda: lam},
							accel: a,
						})
					}
				}
			}
		}
	}
	forms := []BlockingForm{BlockingVCOccupancy, BlockingPaper, BlockingWaitOnly, BlockingMultiServer, BlockingBandwidth}
	formShapes := []shape{
		{"hotspot-2d", 8, 2, 2}, {"hotspot-2d", 16, 2, 4},
		{"bidirectional-2d", 8, 2, 2}, {"bidirectional-2d", 16, 2, 4},
		{"ndim", 8, 2, 2}, {"ndim", 4, 3, 4},
		{"uniform", 16, 2, 1}, {"uniform", 8, 2, 4},
		{"hypercube", 2, 6, 1}, {"hypercube", 2, 8, 2},
	}
	for _, form := range forms {
		for _, sh := range formShapes {
			for _, h := range hs(sh.name) {
				for _, lam := range solveBitsLambdas {
					for _, a := range accels {
						cases = append(cases, solveBitsCase{
							name:  sh.name,
							spec:  Spec{K: sh.k, Dims: sh.dims, V: sh.v, Lm: 32, H: h, Lambda: lam},
							accel: a,
							block: form,
						})
					}
				}
			}
		}
	}
	return cases
}

// solveBitsLine solves one case and renders its outcome: the Float64bits
// of every SolveResult scalar plus the iteration count, or the failure
// class.
func solveBitsLine(c solveBitsCase) string {
	key := fmt.Sprintf("%s k=%d n=%d v=%d lm=%d h=%v lambda=%v accel=%s block=%d",
		c.name, c.spec.K, c.spec.Dims, c.spec.V, c.spec.Lm, c.spec.H, c.spec.Lambda, c.accel, c.block)
	o := Options{Blocking: c.block, FixPoint: fixpoint.Options{Acceleration: c.accel}}
	r, err := Solve(c.name, c.spec, o)
	switch {
	case errors.Is(err, ErrSaturated):
		return key + " | saturated"
	case err != nil:
		return key + " | error"
	}
	return fmt.Sprintf("%s | it=%d lat=%016x reg=%016x hot=%016x ws=%016x vbar=%016x", key,
		r.Convergence.Iterations, math.Float64bits(r.Latency), math.Float64bits(r.Regular),
		math.Float64bits(r.Hot), math.Float64bits(r.SourceWait), math.Float64bits(r.VBar))
}

// TestSolveBitsGolden pins every registered solver's answers bit for bit
// across the grid of solveBitsCases. testdata/solve_bits.golden was
// written by solveBitsLine from the solvers as they stood before the
// allocation-free Iterate rewrite; an optimisation that changes any
// floating-point result fails here. A deliberate model change is the only
// reason to rewrite the file.
func TestSolveBitsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full bit-identity grid")
	}
	raw, err := os.ReadFile("testdata/solve_bits.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	cases := solveBitsCases()
	if len(want) != len(cases) {
		t.Fatalf("golden has %d lines, grid has %d cases", len(want), len(cases))
	}
	byName := map[string][]int{}
	for i, c := range cases {
		byName[c.name] = append(byName[c.name], i)
	}
	for name, idx := range byName {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bad := 0
			for _, i := range idx {
				if got := solveBitsLine(cases[i]); got != want[i] {
					if bad++; bad <= 10 {
						t.Errorf("case %d:\n got %s\nwant %s", i, got, want[i])
					}
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d cases differ from the golden bits", bad, len(idx))
			}
		})
	}
}
