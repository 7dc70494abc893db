package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand/v2"

	"kncube/internal/core"
	"kncube/internal/experiments"
	"kncube/internal/fixpoint"
	"kncube/internal/serve"
)

// A query is one generated POST /v1/solve request together with the
// model, spec and options the server derives from it, so checks and
// replays call the library with exactly what the server solved.
type query struct {
	Body  []byte
	Model string
	Spec  core.Spec
	Opts  core.Options
}

func newQuery(req serve.SolveRequest) query {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a SolveRequest always marshals
	}
	var opts core.Options
	if o := req.Options; o != nil && o.Acceleration != "" {
		acc, err := fixpoint.ParseAcceleration(o.Acceleration)
		if err != nil {
			panic(err) // the generator only emits known scheme names
		}
		opts.FixPoint.Acceleration = acc
	}
	return query{
		Body:  body,
		Model: req.Model,
		Spec:  core.Spec{K: req.K, Dims: req.Dims, V: req.V, Lm: req.Lm, H: req.H, Lambda: req.Lambda},
		Opts:  opts,
	}
}

// axisMax is the top of the λ axis for a k-ary 2-cube, message length and
// hot-spot fraction. The paper's panels are all k=16; their axes end
// where the hot node's offered load h·λ·k²·Lm reaches about 1 flit per
// cycle (0.98 to 1.25 over the six panels). The axis top is the Figure 1
// (Lm=32) or Figure 2 (Lm=100) panel maximum, interpolated linearly in h
// between the published h=20/40/70% panels and clamped outside them, and
// scaled by (16/k)² so that every k covers the same hot-node load range.
func axisMax(k, lm int, h float64) float64 {
	var hs, tops []float64
	for _, p := range experiments.Figures() {
		if p.Lm == lm {
			hs = append(hs, p.H)
			tops = append(tops, p.Lambdas[len(p.Lambdas)-1])
		}
	}
	scale := 256 / float64(k*k)
	if h <= hs[0] {
		return scale * tops[0]
	}
	for i := 1; i < len(hs); i++ {
		if h <= hs[i] {
			w := (h - hs[i-1]) / (hs[i] - hs[i-1])
			return scale * (tops[i-1] + w*(tops[i]-tops[i-1]))
		}
	}
	return scale * tops[len(tops)-1]
}

// Load range of generated queries, as fractions of axisMax: from light
// load to 10% past the panel's last point, so some queries land beyond
// the saturation frontier.
const (
	loadLo = 0.02
	loadHi = 1.1
)

// The serve-exact grid. There is no recorded request traffic to take a
// mix from, so the stream gives every cell of the grid the same share:
// each model × k × Lm × acceleration cell once per block of exactCells
// items, with h and the load spread evenly over their ranges. The shares
// are a choice, stated here so that they can be checked, not a
// measurement.
var (
	paperLms    = []int{32, 100} // the message lengths of Figures 1 and 2
	exactModels = []string{"hotspot-2d", "bidirectional-2d", "ndim"}
	exactKs     = []int{8, 16, 32}
	exactAccels = []string{"", "anderson"}
	exactCells  = len(exactModels) * len(exactKs) * len(paperLms) * len(exactAccels)
)

// exactQuery is item i of the serve-exact stream. Items come in blocks of
// exactCells, each holding every grid cell once in a seeded order, and
// blocks come in rounds of exactCells blocks, over which every cell takes
// each of exactCells equal strata of h and of the load once, in seeded
// orders. So any whole block has exactly the stated shares, and the
// costly items (large k near saturation) come at a fixed rate per round
// rather than by chance. Item i depends only on (seed, i), so the stream
// is unbounded and item i is the same however many clients pull from it.
func exactQuery(seed int64, i int) query {
	n := exactCells
	block, j := i/n, i%n
	round, b := block/n, block%n
	perm := func(tag, k int) []int {
		return rand.New(rand.NewPCG(uint64(seed), uint64(tag)<<60|uint64(k))).Perm(n)
	}
	cell := perm(1, block)[j]
	hStratum, loadStratum := perm(2, round*n+cell)[b], perm(3, round*n+cell)[b]
	r := rand.New(rand.NewPCG(uint64(seed), uint64(i)))
	strat := func(s int) float64 { return (float64(s) + r.Float64()) / float64(n) }

	req := serve.SolveRequest{V: 2}
	req.Model = exactModels[cell%len(exactModels)]
	cell /= len(exactModels)
	req.K = exactKs[cell%len(exactKs)]
	cell /= len(exactKs)
	req.Lm = paperLms[cell%len(paperLms)]
	cell /= len(paperLms)
	if acc := exactAccels[cell]; acc != "" {
		req.Options = &serve.SolveOptions{Acceleration: acc}
	}
	req.H = 0.1 + 0.6*strat(hStratum)
	req.Lambda = axisMax(req.K, req.Lm, req.H) * (loadLo + (loadHi-loadLo)*strat(loadStratum))
	return newQuery(req)
}

// Shape of the serve-auto pool and of the surfaces built for it.
const (
	poolSize       = 2000
	autoK          = 16
	surfaceLambdas = 16
)

// surfaceHKnots are the h knots of the serve-auto surfaces.
var surfaceHKnots = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}

// autoPool is the fixed pool of serve-auto queries: hotspot-2d k=16
// points with h continuous in [0.1, 0.7], both message lengths, and λ
// across the panel range including past the frontier.
func autoPool(seed int64) []query {
	r := rand.New(rand.NewPCG(uint64(seed), 1<<62))
	pool := make([]query, poolSize)
	for i := range pool {
		lm := paperLms[r.IntN(len(paperLms))]
		h := 0.1 + 0.6*r.Float64()
		pool[i] = newQuery(serve.SolveRequest{
			Model:   "hotspot-2d",
			K:       autoK,
			V:       2,
			Lm:      lm,
			H:       h,
			Lambda:  axisMax(autoK, lm, h) * (loadLo + (loadHi-loadLo)*r.Float64()),
			Options: &serve.SolveOptions{Mode: serve.ModeAuto},
		})
	}
	return pool
}

// autoDraw is the pool index of serve-auto request i (drawn with
// replacement).
func autoDraw(seed int64, i int) int {
	return rand.New(rand.NewPCG(uint64(seed), uint64(i)|1<<63)).IntN(poolSize)
}

// surfaceRequest is the POST /v1/surfaces body serve-auto builds for one
// message length: the h knots and 16 λ knots up to the top of the
// generated load range.
func surfaceRequest(lm int) serve.SurfaceRequest {
	top := loadHi * axisMax(autoK, lm, surfaceHKnots[0])
	lams := make([]float64, surfaceLambdas)
	for i := range lams {
		lams[i] = top * float64(i+1) / surfaceLambdas
	}
	return serve.SurfaceRequest{
		Model: "hotspot-2d", K: autoK, V: 2, Lm: lm,
		Hs: surfaceHKnots, Lambdas: lams,
	}
}

// hashPrefix is how many stream items the input hash covers.
const hashPrefix = 4096

// inputsHash fingerprints a workload's generated inputs: the serve-exact
// stream prefix, or the serve-auto pool, draw-sequence prefix and
// surface requests. Equal hashes mean equal inputs.
func inputsHash(workload string, seed int64) string {
	h := sha256.New()
	switch workload {
	case "serve-exact":
		for i := 0; i < hashPrefix; i++ {
			h.Write(exactQuery(seed, i).Body)
		}
	case "serve-auto":
		for _, q := range autoPool(seed) {
			h.Write(q.Body)
		}
		var b [4]byte
		for i := 0; i < hashPrefix; i++ {
			d := autoDraw(seed, i)
			b[0], b[1], b[2], b[3] = byte(d), byte(d>>8), byte(d>>16), byte(d>>24)
			h.Write(b[:])
		}
		for _, lm := range paperLms {
			body, _ := json.Marshal(surfaceRequest(lm))
			h.Write(body)
		}
	case "sweep-figures":
		for _, p := range sweepPanels() {
			h.Write([]byte(p.ID))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
