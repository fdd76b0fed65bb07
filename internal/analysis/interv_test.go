package analysis

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/node"
)

func smallIntervConfig(seed int64) InterventionGridConfig {
	base := smallPropConfig(seed)
	base.NumReachable = 24
	base.Duration = 30 * time.Minute
	base.Warmup = 8 * time.Minute
	base.TxPerBlock = 8
	return InterventionGridConfig{
		Base: base,
		PolicySets: []node.PolicySet{
			node.MustPolicySet(node.StockPolicyName),
			node.MustPolicySet("tried-only-addr+horizon-17d+priority-relay"),
		},
		Churns:            []IntervChurn{{Name: "2020", DeparturesPer10Min: 1.0}},
		UnreachableShares: []float64{0, 0.25},
		ColdStartRuns:     1,
	}
}

func TestRunInterventionGridSmall(t *testing.T) {
	cfg := smallIntervConfig(3)
	res, err := RunInterventionGrid(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	wantNames := []string{
		"stock.2020.u0",
		"stock.2020.u25",
		"tried-only-addr+horizon-17d+priority-relay.2020.u0",
		"tried-only-addr+horizon-17d+priority-relay.2020.u25",
	}
	for i, c := range res.Cells {
		if c.Name != wantNames[i] {
			t.Errorf("cell %d = %q, want %q", i, c.Name, wantNames[i])
		}
		if c.MeanObservedSync <= 0 || c.MeanSync <= 0 {
			t.Errorf("%s: no sync measured", c.Name)
		}
		if c.DialSuccessRate <= 0 {
			t.Errorf("%s: no dial successes", c.Name)
		}
		if c.ColdStartSuccessRate <= 0 {
			t.Errorf("%s: no cold-start successes", c.Name)
		}
		if c.PopTruth <= 0 {
			t.Errorf("%s: no population truth", c.Name)
		}
		if c.Sources == 0 {
			t.Errorf("%s: degree estimator observed no sources", c.Name)
		}
		if _, ok := res.Series.Get("interv.sync.observed." + c.Name); !ok {
			t.Errorf("%s: missing observed-sync series", c.Name)
		}
	}
	// The population estimator reads unreachable addresses out of ADDR
	// responses, so it works under stock gossip and is starved to zero by
	// tried-only-addr (responses then carry only verified-reachable
	// addresses) — a measurement side effect of the §V refinement that
	// the grid is expected to surface.
	for _, c := range res.Cells[:2] {
		if c.PopEst <= 0 {
			t.Errorf("%s: population estimator starved under stock gossip", c.Name)
		}
	}
	for _, c := range res.Cells[2:] {
		if c.PopEst != 0 {
			t.Errorf("%s: tried-only gossip still fed the population estimator (est=%v)",
				c.Name, c.PopEst)
		}
	}
	// The u25 cells actually ran unreachable nodes; the u0 cells did not.
	if res.Cells[0].NumUnreachable != 0 {
		t.Errorf("u0 cell ran %d unreachable nodes", res.Cells[0].NumUnreachable)
	}
	if res.Cells[1].NumUnreachable != 6 {
		t.Errorf("u25 cell ran %d unreachable nodes, want 6", res.Cells[1].NumUnreachable)
	}
	// Common random numbers: the same environment seed is shared across
	// policy sets within a (churn, mix) environment.
	if res.Cells[0].Seed != res.Cells[2].Seed || res.Cells[1].Seed != res.Cells[3].Seed {
		t.Error("environment seeds not shared across policy sets")
	}
	if res.Cells[0].Seed == res.Cells[1].Seed {
		t.Error("distinct environments share a seed")
	}
}

// TestRunInterventionGridWorkersInvariant: the grid must be
// byte-identical at any fan-out width.
func TestRunInterventionGridWorkersInvariant(t *testing.T) {
	cfg1 := smallIntervConfig(7)
	cfg1.Workers = 1
	cfg4 := smallIntervConfig(7)
	cfg4.Workers = 4
	a, err := RunInterventionGrid(context.Background(), cfg1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunInterventionGrid(context.Background(), cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Cells, b.Cells) {
		t.Errorf("cells differ between workers=1 and workers=4:\n%+v\nvs\n%+v", a.Cells, b.Cells)
	}
	if !reflect.DeepEqual(a.Series, b.Series) {
		t.Error("series differ between workers=1 and workers=4")
	}
}
