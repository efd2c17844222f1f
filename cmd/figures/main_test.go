package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets TestCSVFailureExitsOne run the command itself: a child
// started with FIGURES_RUN_MAIN=1 runs main on its arguments instead of
// the tests.
func TestMain(m *testing.M) {
	if os.Getenv("FIGURES_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCSVFailureExitsOne: a -csv file that cannot be written fails the
// run with exit status 1 and one line naming the file, instead of
// leaving the CSV silently missing. Figure 8 runs no simulation, so the
// child is quick.
func TestCSVFailureExitsOne(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "fig8.csv")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-fig", "8", "-csv", dir)
	cmd.Env = append(os.Environ(), "FIGURES_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("run error %v, want exit status 1; stderr %q", err, stderr.String())
	}
	if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, target) {
		t.Errorf("stderr %q, want one line naming %s", msg, target)
	}
}

func TestCheckFig(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"all", true},
		{"2", true},
		{"10", true},
		{"three-tier", true},
		{"admission", true},
		{"", false},
		{"1", false},
		{"11", false},
		{"ALL", false},
		{"fig3", false},
		{" 3", false},
	} {
		err := checkFig(tc.name)
		if (err == nil) != tc.ok {
			t.Errorf("checkFig(%q) = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if err != nil {
			for _, want := range []string{"all", "2", "admission"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("checkFig(%q) error %q does not list %q", tc.name, err, want)
				}
			}
		}
	}
}

func TestCheckNumbers(t *testing.T) {
	for _, tc := range []struct {
		duration float64
		flag     string // "" when the value is valid
	}{
		{600, ""},
		{0.5, ""},
		{-5, "-duration"},
		{0, "-duration"},
		{math.NaN(), "-duration"},
		{math.Inf(1), "-duration"},
	} {
		err := checkNumbers(tc.duration)
		if tc.flag == "" {
			if err != nil {
				t.Errorf("checkNumbers(%v) = %v, want nil", tc.duration, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("checkNumbers(%v) = %v, want an error naming %s", tc.duration, err, tc.flag)
		}
	}
}
