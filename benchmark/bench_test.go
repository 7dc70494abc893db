package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"kncube/internal/serve"
	"kncube/internal/surface"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	for i := 0; i < 64; i++ {
		if a, b := exactQuery(7, i), exactQuery(7, i); !bytes.Equal(a.Body, b.Body) {
			t.Fatalf("exactQuery(7, %d) differs between calls: %s vs %s", i, a.Body, b.Body)
		}
		if autoDraw(7, i) != autoDraw(7, i) {
			t.Fatalf("autoDraw(7, %d) differs between calls", i)
		}
	}
	p1, p2 := autoPool(7), autoPool(7)
	for i := range p1 {
		if !bytes.Equal(p1[i].Body, p2[i].Body) {
			t.Fatalf("autoPool(7)[%d] differs between calls", i)
		}
	}
	for _, w := range workloads {
		if inputsHash(w.name, 7) != inputsHash(w.name, 7) {
			t.Errorf("%s: input hash differs for the same seed", w.name)
		}
	}
	for _, w := range []string{"serve-exact", "serve-auto"} {
		if inputsHash(w, 7) == inputsHash(w, 8) {
			t.Errorf("%s: seeds 7 and 8 hash the same inputs", w)
		}
	}
}

func TestExactStreamIsStratified(t *testing.T) {
	cellOf := func(q query) string {
		return fmt.Sprintf("%s k=%d Lm=%d %v", q.Model, q.Spec.K, q.Spec.Lm, q.Opts.FixPoint.Acceleration)
	}
	strata := map[string]map[int]bool{} // load strata per cell over round 0
	for b := 0; b < exactCells; b++ {
		seen := map[string]bool{}
		for i := b * exactCells; i < (b+1)*exactCells; i++ {
			q := exactQuery(7, i)
			key := cellOf(q)
			if seen[key] {
				t.Fatalf("block %d holds cell %s twice", b, key)
			}
			seen[key] = true
			load := q.Spec.Lambda / axisMax(q.Spec.K, q.Spec.Lm, q.Spec.H)
			s := int((load - loadLo) / (loadHi - loadLo) * float64(exactCells))
			if strata[key] == nil {
				strata[key] = map[int]bool{}
			}
			strata[key][s] = true
		}
		if len(seen) != exactCells {
			t.Fatalf("block %d holds %d cells, want %d", b, len(seen), exactCells)
		}
	}
	for key, ss := range strata {
		if len(ss) != exactCells {
			t.Errorf("cell %s takes %d distinct load strata over a round, want %d", key, len(ss), exactCells)
		}
	}
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %s", m.Name, valid)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}

	// BENCHMARK.json lists the same metrics, units and directions.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bj.Workloads[i].Name, w.name)
		}
	}
}

func TestCheckerFlagsOneULP(t *testing.T) {
	var tr truth
	for i := 0; ; i++ {
		if tr = solveTruth(exactQuery(1, i)); tr.err == nil {
			break
		}
	}
	res := apiResult(tr.res)
	if m := exactMismatch(answerFor(res), tr); m != "" {
		t.Fatalf("unperturbed answer flagged: %s", m)
	}
	for name, perturb := range map[string]func(r *serve.SolveResult){
		"latency one ulp high":  func(r *serve.SolveResult) { r.Latency = math.Nextafter(r.Latency, math.Inf(1)) },
		"vbar one ulp low":      func(r *serve.SolveResult) { r.VBar = math.Nextafter(r.VBar, 0) },
		"iterations off by one": func(r *serve.SolveResult) { r.Iterations++ },
	} {
		r := res
		perturb(&r)
		if exactMismatch(answerFor(r), tr) == "" {
			t.Errorf("%s not flagged", name)
		}
	}
	sat := answerFor(res)
	sat.saturated = true
	if exactMismatch(sat, tr) == "" {
		t.Error("saturated answer to a solvable spec not flagged")
	}

	lk := surface.Lookup{Latency: 100, Regular: 90, Hot: 150, SourceWait: 3, VBar: 1.2}
	s := answerFor(serve.SolveResult{Latency: 100, Regular: 90, Hot: 150, SourceWait: 3, VBar: 1.2})
	if m := surfaceMismatch(s, lk); m != "" {
		t.Fatalf("identical surface answer flagged: %s", m)
	}
	lk.Latency = math.Nextafter(100, 0)
	if surfaceMismatch(s, lk) == "" {
		t.Error("surface latency one ulp low not flagged")
	}
}

func TestAutoTallyFlagsDifferingAnswers(t *testing.T) {
	a := answerFor(serve.SolveResult{Latency: 100, Regular: 90, Hot: 150})
	a.source = srcExact
	var same, differ autoTally
	for i := 0; i < 3; i++ {
		same.add(a)
		differ.add(a)
	}
	b := answerFor(serve.SolveResult{Latency: math.Nextafter(100, 0), Regular: 90, Hot: 150})
	b.source = srcExact
	differ.add(b)
	differ.add(answer{status: 503})
	if same.diverged || same.n != 3 || same.notOK != 0 {
		t.Errorf("identical answers: %+v", same)
	}
	if !differ.diverged || differ.n != 5 || differ.notOK != 1 || differ.status != 503 {
		t.Errorf("one answer one ulp off and one 503: %+v", differ)
	}
}

func TestCheckerFlagsChangedCSVByte(t *testing.T) {
	want, err := os.ReadFile("../results/fig1-h70.csv")
	if err != nil {
		t.Fatal(err)
	}
	if m := csvMismatch(append([]byte(nil), want...), want); m != "" {
		t.Fatalf("identical CSV flagged: %s", m)
	}
	got := append([]byte(nil), want...)
	got[len(got)/2] ^= 1
	if csvMismatch(got, want) == "" {
		t.Error("CSV with one changed byte not flagged")
	}
}

// smoke runs one workload briefly and returns its result line.
func smoke(t *testing.T, name string, trace bool) resultLine {
	t.Helper()
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	cfg := config{workload: name, seed: 3, seconds: 0.5, trace: trace, root: "..", outDir: t.TempDir()}
	out, err := w.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	report(&b, cfg, w, out, 0)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, b.String())
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("result %+v\n%s", res, b.String())
	}
	list := endToEnd
	if trace {
		list = perLayer
	}
	for _, m := range list {
		v, ok := res.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) {
			t.Errorf("metric %s: %+v present=%v", m.Name, v, ok)
		}
	}
	return res
}

func TestSmokeServeExact(t *testing.T) {
	if res := smoke(t, "serve-exact", false); res.Failed != 0 {
		t.Errorf("serve-exact failed %d operations", res.Failed)
	}
}

func TestSmokeServeAuto(t *testing.T) {
	if res := smoke(t, "serve-auto", false); res.Failed != 0 {
		t.Errorf("serve-auto failed %d operations", res.Failed)
	}
}

func TestSmokeSweepFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("one full panel sweep (~11 s)")
	}
	if res := smoke(t, "sweep-figures", false); res.Failed != 0 {
		t.Errorf("sweep-figures failed %d operations", res.Failed)
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced replay of all three workloads (~45 s)")
	}
	smoke(t, "serve-exact", true)
}
