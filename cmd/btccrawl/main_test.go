package main

import "testing"

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
