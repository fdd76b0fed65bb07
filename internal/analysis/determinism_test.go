package analysis

import (
	"context"
	"testing"
	"time"

	"repro/internal/stats"
)

// TestRunPropagationDeterministic: identical configurations must produce
// bit-identical results — the reproducibility guarantee every experiment
// in this repository rests on.
func TestRunPropagationDeterministic(t *testing.T) {
	cfg := PropagationConfig{
		Seed:                    77,
		NumReachable:            30,
		Duration:                45 * time.Minute,
		TxPerBlock:              20,
		ChurnDeparturesPer10Min: 1,
	}
	a, err := RunPropagation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPropagation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.BlocksMined != b.BlocksMined {
		t.Errorf("blocks: %d vs %d", a.BlocksMined, b.BlocksMined)
	}
	if a.DialAttempts != b.DialAttempts || a.DialSuccesses != b.DialSuccesses {
		t.Errorf("dials: %d/%d vs %d/%d",
			a.DialAttempts, a.DialSuccesses, b.DialAttempts, b.DialSuccesses)
	}
	if len(a.ObservedSyncSamples) != len(b.ObservedSyncSamples) {
		t.Fatalf("sample counts differ: %d vs %d",
			len(a.ObservedSyncSamples), len(b.ObservedSyncSamples))
	}
	for i := range a.ObservedSyncSamples {
		if a.ObservedSyncSamples[i] != b.ObservedSyncSamples[i] {
			t.Fatalf("sync sample %d differs: %v vs %v",
				i, a.ObservedSyncSamples[i], b.ObservedSyncSamples[i])
		}
	}
	if len(a.BlockRelays) != len(b.BlockRelays) {
		t.Errorf("relay observation counts differ: %d vs %d",
			len(a.BlockRelays), len(b.BlockRelays))
	}
	sa := stats.Mean(RelayDelaysSeconds(a.BlockRelays))
	sb := stats.Mean(RelayDelaysSeconds(b.BlockRelays))
	if sa != sb {
		t.Errorf("mean relay delay differs: %v vs %v", sa, sb)
	}
}

// TestSeedChangesOutcome: different seeds must explore different
// trajectories (guards against accidentally ignoring the seed).
func TestSeedChangesOutcome(t *testing.T) {
	base := PropagationConfig{
		NumReachable: 30,
		Duration:     30 * time.Minute,
		TxPerBlock:   10,
	}
	a := base
	a.Seed = 1
	b := base
	b.Seed = 2
	ra, err := RunPropagation(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunPropagation(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.DialAttempts == rb.DialAttempts && ra.BlocksMined == rb.BlocksMined &&
		len(ra.TxRelays) == len(rb.TxRelays) {
		t.Error("different seeds produced identical trajectories")
	}
}

// TestChaosObservabilityGolden is the determinism golden test for the
// observability layer: two chaos runs with the same seed must emit a
// byte-identical metrics snapshot and the same trace digest, and a
// different seed must change the digest. Any nondeterminism smuggled
// into a metric or trace point (map iteration, wall-clock reads) fails
// here before it can corrupt a published figure.
func TestChaosObservabilityGolden(t *testing.T) {
	cfg := ChaosConfig{
		Seed:     41,
		NumNodes: 8,
		Duration: 25 * time.Minute,
	}
	a, err := RunChaos(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	textA, textB := a.Metrics.String(), b.Metrics.String()
	if textA == "" {
		t.Fatal("chaos run produced an empty metrics snapshot")
	}
	if textA != textB {
		t.Errorf("same-seed metrics snapshots differ:\n--- run A ---\n%s\n--- run B ---\n%s",
			textA, textB)
	}
	if a.TraceDigest != b.TraceDigest {
		t.Errorf("same-seed trace digests differ: %s vs %s",
			a.TraceDigest, b.TraceDigest)
	}
	if a.TraceTotal == 0 {
		t.Error("chaos run emitted no trace events")
	}
	if a.TraceTotal != b.TraceTotal {
		t.Errorf("same-seed trace totals differ: %d vs %d", a.TraceTotal, b.TraceTotal)
	}

	// The sim-time series must render byte-identically across same-seed
	// runs — the *_timeseries.csv sidecars the runner writes are diffed
	// verbatim by the CI determinism job at -workers 1 vs 4, so any
	// wall-clock read or map-order leak in the sampler fails here first.
	csvA, err := a.Series.EncodeCSV()
	if err != nil {
		t.Fatal(err)
	}
	csvB, err := b.Series.EncodeCSV()
	if err != nil {
		t.Fatal(err)
	}
	if csvA == "" || a.Series.Len() == 0 {
		t.Fatal("chaos run produced no time series")
	}
	if csvA != csvB {
		t.Errorf("same-seed series CSVs differ:\n--- run A ---\n%s\n--- run B ---\n%s", csvA, csvB)
	}

	cfg.Seed = 42
	c, err := RunChaos(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.TraceDigest == a.TraceDigest {
		t.Error("different seeds produced the same trace digest")
	}
	if c.Metrics.String() == textA {
		t.Error("different seeds produced identical metrics snapshots")
	}
	if csvC, _ := c.Series.EncodeCSV(); csvC == csvA {
		t.Error("different seeds produced identical series CSVs")
	}
}

// TestPropagationObservabilityGolden is the propagation twin of the
// chaos golden: with several transactions per block, two same-seed runs
// must agree on the trace digest, the event total and the series CSV,
// and a different seed must change the digest. Block templates are the
// sensitive spot — the transaction order decides the merkle root, the
// block hash, and through it every deliver.block/relay.block label and
// span identifier in the trace.
func TestPropagationObservabilityGolden(t *testing.T) {
	cfg := PropagationConfig{
		Seed:         77,
		NumReachable: 30,
		Duration:     45 * time.Minute,
		TxPerBlock:   20,
	}
	a, err := RunPropagation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPropagation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceTotal == 0 || a.BlocksMined == 0 {
		t.Fatalf("run emitted %d trace events over %d blocks", a.TraceTotal, a.BlocksMined)
	}
	if a.TraceDigest != b.TraceDigest {
		t.Errorf("same-seed trace digests differ: %s vs %s", a.TraceDigest, b.TraceDigest)
	}
	if a.TraceTotal != b.TraceTotal {
		t.Errorf("same-seed trace totals differ: %d vs %d", a.TraceTotal, b.TraceTotal)
	}
	csvA, err := a.Series.EncodeCSV()
	if err != nil {
		t.Fatal(err)
	}
	csvB, err := b.Series.EncodeCSV()
	if err != nil {
		t.Fatal(err)
	}
	if csvA == "" {
		t.Fatal("run produced no time series")
	}
	if csvA != csvB {
		t.Error("same-seed series CSVs differ")
	}

	cfg.Seed = 78
	c, err := RunPropagation(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.TraceDigest == a.TraceDigest {
		t.Error("different seeds produced the same trace digest")
	}
}
