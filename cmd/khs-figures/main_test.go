package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func runFigures(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errb bytes.Buffer
	err = run(context.Background(), args, &out, &errb)
	return out.String(), errb.String(), err
}

// TestAccelFlagValidation: the fixed-point acceleration flags must be
// rejected before any simulation starts — these runs finish instantly.
func TestAccelFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown scheme", []string{"-accel", "psychic"}, "acceleration"},
		{"negative window", []string{"-accel", "anderson", "-accel-window", "-1"}, "non-negative"},
		{"window above the limit", []string{"-accel", "anderson", "-accel-window", "100000"}, "at most"},
		{"window without anderson", []string{"-accel-window", "3"}, "anderson"},
	} {
		_, _, err := runFigures(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s (%v): err = %v, want mention of %q", tc.name, tc.args, err, tc.want)
		}
	}
}

func TestRejectsUnknownPanelAndArgs(t *testing.T) {
	if _, _, err := runFigures(t, "-panel", "no-such-panel"); err == nil {
		t.Error("unknown panel accepted")
	}
	if _, _, err := runFigures(t, "stray-arg"); err == nil {
		t.Error("stray positional argument accepted")
	}
}
