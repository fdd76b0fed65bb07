package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// TestFig10Fig11ShareOneTrace: the two figures read one memoized trace, so
// on the same Options their reports carry the same series set, at any
// Workers; a second seed replaces the entry instead of joining it.
func TestFig10Fig11ShareOneTrace(t *testing.T) {
	ctx := context.Background()
	fig10, _ := ByID("fig10")
	fig11, _ := ByID("fig11")
	opts := Options{Quick: true, NetSize: 8, Seed: 5}
	a, err := fig10.Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 3
	b, err := fig11.Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Series == nil || a.Series != b.Series {
		t.Errorf("fig10 and fig11 on one Options carry series %p and %p, want one trace", a.Series, b.Series)
	}

	opts.Seed = 6
	c, err := fig11.Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Series == a.Series {
		t.Error("a second seed was served the first seed's trace")
	}
	if relayStudy.key.Seed != 6 {
		t.Errorf("entry holds seed %d after a run on seed 6", relayStudy.key.Seed)
	}
	opts.Seed = 5
	d, err := fig10.Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Series == a.Series {
		t.Error("seed 5 was still held after seed 6 replaced it")
	}
	var got, want bytes.Buffer
	d.Render(&got)
	a.Render(&want)
	if got.String() != want.String() {
		t.Errorf("recomputed fig10 differs from the first run:\n%s\nvs\n%s", &got, &want)
	}
}

// TestStudyWaiterHonoursDeadline: a request queued behind another seed's
// computation gives up when its own context ends, and a failed run leaves
// the entry as it was.
func TestStudyWaiterHonoursDeadline(t *testing.T) {
	s := newStudy[int]()
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := s.get(context.Background(), Options{Seed: 1}, func(context.Context, Options) (int, error) {
			close(started)
			<-release
			return 1, nil
		})
		done <- err
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := s.get(ctx, Options{Seed: 2}, func(context.Context, Options) (int, error) {
		t.Error("the waiter ran while the entry was busy")
		return 0, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiter returned %v, want its deadline", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	if _, err := s.get(context.Background(), Options{Seed: 3}, func(context.Context, Options) (int, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Errorf("failed run returned %v", err)
	}
	got, err := s.get(context.Background(), Options{Seed: 1}, func(context.Context, Options) (int, error) {
		t.Error("seed 1 was recomputed after another seed's failed run")
		return 0, nil
	})
	if got != 1 || err != nil {
		t.Errorf("entry after a failed run = %d, %v; want 1", got, err)
	}
}

// TestRenderFig12MatchesReport: `reproduce -render fig12` draws the
// population the fig12 report measures on the same Options, so its
// summary line carries the report's always-present and unique counts.
func TestRenderFig12MatchesReport(t *testing.T) {
	ctx := context.Background()
	opts := Options{Quick: true, Seed: 7}
	var out bytes.Buffer
	if err := RenderFig12(ctx, opts, &out); err != nil {
		t.Fatal(err)
	}
	fig12, _ := ByID("fig12")
	rep, err := fig12.Run(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	values := make(map[string]string)
	for _, m := range rep.Metrics {
		values[m.Name] = m.Value
	}
	want := "persistent=" + values["always-present nodes"] + " of " + values["unique reachable addresses"] + ","
	if !bytes.Contains(out.Bytes(), []byte(want)) {
		t.Errorf("render lacks the report's counts %q; it printed:\n%s", want, &out)
	}
}
