package analysis

import (
	"context"
	"testing"
	"time"
)

func TestRunChaosConvergesAndRecovers(t *testing.T) {
	res, err := RunChaos(context.Background(), ChaosConfig{
		Seed:     9,
		NumNodes: 8,
		Duration: 30 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("chaos scenario did not converge: %d/%d at tip, spread %d",
			res.SyncedNodes, res.TotalNodes, res.HeightSpread)
	}
	if res.RecoveryTime <= 0 {
		t.Error("recovery time never recorded despite convergence window")
	}
	if res.MinerHeight < 20 {
		t.Errorf("miner height = %d, want ≥ 20", res.MinerHeight)
	}
	if res.Metrics.Counter("faults.transmit.dropped") == 0 {
		t.Error("faults.transmit.dropped = 0: no fault counter recorded in the run's registry")
	}
	// The crash wave must show up as non-persistent rows in the presence
	// matrix.
	if res.PersistentShare != 0 {
		t.Errorf("persistent share = %.2f, want 0 (every tracked node crashed)",
			res.PersistentShare)
	}
}
