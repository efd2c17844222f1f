package main

import (
	"math"
	"strings"
	"testing"
)

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
