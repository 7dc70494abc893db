package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: kncube
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSimulatorStep 	 3247651	       931.2 ns/op	       6 B/op	       0 allocs/op
BenchmarkSolverFigure1-8 	     120	   9876543 ns/op
BenchmarkSolveNearSat/hotspot-2d/anderson-8 	   10000	    104500 ns/op	       102.0 iters/op
PASS
ok  	kncube	3.853s
`

func TestParseExtractsBenchmarks(t *testing.T) {
	e, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if e.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", e.CPU)
	}
	if len(e.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(e.Benchmarks), e.Benchmarks)
	}
	step := e.Benchmarks[0]
	if step.Name != "BenchmarkSimulatorStep" || step.Iterations != 3247651 {
		t.Errorf("step benchmark = %+v", step)
	}
	if step.BytesPerOp == nil || step.AllocsPerOp == nil {
		t.Fatalf("step benchmark lost its measured B/op or allocs/op: %+v", step)
	}
	//lint:ignore floateq strconv round-trips the literal text exactly
	if step.NsPerOp != 931.2 || *step.BytesPerOp != 6 || *step.AllocsPerOp != 0 {
		t.Errorf("step metrics = %+v", step)
	}
	// A Step benchmark advances one simulated cycle per iteration, so the
	// derived rate is 1e9/ns.
	if got, want := step.CyclesPerSec, 1e9/931.2; got < want*0.999 || got > want*1.001 {
		t.Errorf("cycles/sec = %v, want ~%v", got, want)
	}
	solver := e.Benchmarks[1]
	//lint:ignore floateq strconv round-trips the literal text exactly
	if solver.Name != "BenchmarkSolverFigure1-8" || solver.NsPerOp != 9876543 {
		t.Errorf("solver benchmark = %+v", solver)
	}
	//lint:ignore floateq derived field must be exactly unset for non-Step benchmarks
	if solver.CyclesPerSec != 0 {
		t.Errorf("non-Step benchmark got cycles/sec %v", solver.CyclesPerSec)
	}
	accel := e.Benchmarks[2]
	//lint:ignore floateq strconv round-trips the literal text exactly
	if accel.ItersPerOp != 102 || accel.NsPerOp != 104500 {
		t.Errorf("solve benchmark = %+v, want 102 iters/op at 104500 ns/op", accel)
	}
	//lint:ignore floateq strconv round-trips the literal text exactly
	if solver.ItersPerOp != 0 || step.ItersPerOp != 0 {
		t.Errorf("iters/op leaked onto benchmarks that do not report it: %+v %+v", solver, step)
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	in := "BenchmarkAlone\n=== RUN TestFoo\nBenchmarkBad abc 1 ns/op\n"
	e, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from junk, want 0", len(e.Benchmarks))
	}
}

// marshalLine parses one bench line and returns its JSON encoding.
func marshalLine(t *testing.T, line string) string {
	t.Helper()
	b, ok := parseLine(line)
	if !ok {
		t.Fatalf("parseLine(%q) rejected the line", line)
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestUnmeasuredAllocsOmitted: a line run without -benchmem carries no
// B/op or allocs/op, and the entry must not claim a zero it never measured.
func TestUnmeasuredAllocsOmitted(t *testing.T) {
	got := marshalLine(t, "BenchmarkSolve/hotspot-2d-2 \t 5 \t 1362459 ns/op")
	for _, key := range []string{"bytes_per_op", "allocs_per_op"} {
		if strings.Contains(got, key) {
			t.Errorf("unmeasured %s written: %s", key, got)
		}
	}
}

// TestMeasuredZeroAllocsWritten: a measured zero is a result and is kept.
func TestMeasuredZeroAllocsWritten(t *testing.T) {
	got := marshalLine(t, "BenchmarkSimulatorStep \t 100 \t 913 ns/op \t 0 B/op \t 0 allocs/op")
	for _, key := range []string{`"bytes_per_op":0`, `"allocs_per_op":0`} {
		if !strings.Contains(got, key) {
			t.Errorf("measured zero %s missing: %s", key, got)
		}
	}
}
