package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets TestBadFlagsExitTwo run the command itself: a child
// started with INVERSION_RUN_MAIN=1 runs main on its arguments instead
// of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("INVERSION_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitTwo: every value the formulas are not defined for is
// a usage error that exits 2 with one line naming the flag, before any
// table is printed, and never a panic or a NaN table.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // "" when the command must succeed
	}{
		{nil, ""},
		{[]string{"-k", "3", "-skew", "4,2,1"}, ""},
		{[]string{"-k", "0"}, "-k"},
		{[]string{"-m", "0"}, "-m"},
		{[]string{"-mu", "0"}, "-mu"},
		{[]string{"-mu", "-1"}, "-mu"},
		{[]string{"-mu", "Inf"}, "-mu"},
		{[]string{"-rho", "1.5"}, "-rho"},
		{[]string{"-rho", "0"}, "-rho"},
		{[]string{"-edge-rtt", "-1"}, "-edge-rtt"},
		{[]string{"-cloud-rtt", "NaN"}, "-cloud-rtt"},
		{[]string{"-ca2", "-1"}, "-ca2"},
		{[]string{"-cb2", "NaN"}, "-cb2"},
		{[]string{"-headroom", "0.5"}, "-headroom"},
		{[]string{"-skew", "1,2"}, "-skew"},
		{[]string{"-skew", "1,2,x,4,5"}, "-skew"},
		{[]string{"-skew", "1,2,-3,4,5"}, "-skew"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "INVERSION_RUN_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if tc.flag == "" {
			if code != 0 || stdout.Len() == 0 {
				t.Errorf("%v: exit %d with %d bytes of output, want exit 0 and the tables; stderr %q",
					tc.args, code, stdout.Len(), stderr.String())
			}
			continue
		}
		msg := stderr.String()
		if code != 2 || stdout.Len() != 0 || strings.Count(msg, "\n") != 1 ||
			!strings.HasPrefix(msg, "inversion: "+tc.flag+" ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, no output and one line naming %s",
				tc.args, code, stdout.String(), msg, tc.flag)
		}
	}
}
