package analysis

import (
	"context"
	"testing"
	"time"
)

func TestRunHijack(t *testing.T) {
	res, err := RunHijack(context.Background(), HijackConfig{
		Seed:         51,
		NumReachable: 60,
		At:           20 * time.Minute,
		Observe:      20 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HijackedASes) != hijackTopASes {
		t.Fatalf("hijacked ASes = %d, want %d", len(res.HijackedASes), hijackTopASes)
	}
	if res.IsolatedShare <= 0 || res.IsolatedShare >= 1 {
		t.Errorf("isolated share = %.2f, want in (0,1)", res.IsolatedShare)
	}
	// The survivors had outbound peers before the hijack; their
	// outdegree is sampled again only at the end of the window, so no
	// dip in between is asserted.
	if res.SurvivorMeanOutdegreeBefore <= 0 {
		t.Error("no pre-hijack connectivity")
	}
	if res.BlocksMinedAfter == 0 {
		t.Error("no blocks mined after the hijack")
	}
	if res.SurvivorsAtTip < 0.5 {
		t.Errorf("survivors at tip = %.2f; the surviving partition should keep synchronizing", res.SurvivorsAtTip)
	}
}

func TestRunHijackRejectsTiny(t *testing.T) {
	if _, err := RunHijack(context.Background(), HijackConfig{NumReachable: 5}); err == nil {
		t.Error("want error for tiny network")
	}
}
