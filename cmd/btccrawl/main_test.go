package main

import (
	"strings"
	"testing"
)

func TestSharePct(t *testing.T) {
	for _, tc := range []struct {
		part, whole int
		want        float64
	}{
		{0, 0, 0}, // nothing probed: 0.0%, not NaN
		{0, 8, 0},
		{2, 8, 25},
		{8, 8, 100},
	} {
		if got := sharePct(tc.part, tc.whole); got != tc.want {
			t.Errorf("sharePct(%d, %d) = %v, want %v", tc.part, tc.whole, got, tc.want)
		}
	}
}

func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		day, series int
		csv         string
		flag        string // the flag the error must name; "" = valid
	}{
		{10, 0, "", ""},
		{0, 0, "", ""},
		{59, 6, "s.csv", ""}, // the horizon's last day
		{60, 0, "", "-day"},
		{-1, 0, "", "-day"},
		{-3, 0, "", "-day"},
		{10, -1, "", "-series"},
		{10, -2, "", "-series"},
		{10, 0, "s.csv", "-csv"},
	} {
		err := validateFlags(tc.day, tc.series, tc.csv)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("validateFlags(%d, %d, %q) = %v, want nil", tc.day, tc.series, tc.csv, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("validateFlags(%d, %d, %q) = %v, want an error naming %s", tc.day, tc.series, tc.csv, err, tc.flag)
		}
	}
}
