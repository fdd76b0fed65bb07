package node

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// relayStream attaches a tracer to cfg and returns the relay.* events it
// will see, in emission order: the one record of each relay hop.
func relayStream(cfg *Config, env *fakeEnv) *[]obs.Event {
	var relays []obs.Event
	cfg.Tracer = obs.NewTracer(0, env.Now)
	cfg.Tracer.AddStream(func(ev *obs.Event) {
		if ev.Kind == obs.KindRelayBlock || ev.Kind == obs.KindRelayTx {
			relays = append(relays, *ev)
		}
	})
	return &relays
}

// TestHeadOfLineBlocking verifies the §IV-C mechanism end to end: a large
// block body being serialized to one peer delays the announcements queued
// for other peers in the same message-handler loop.
func TestHeadOfLineBlocking(t *testing.T) {
	env := newFakeEnv()
	cfg := testConfig(mkAddr(10, 0, 0, 1))
	cfg.BytesPerSec = 200 << 10 // 1MB body ≈ 5.2s serialization
	relays := relayStream(&cfg, env)
	n := New(cfg, env)
	n.Start()
	completeHandshake(t, n, env, 1, mkAddr(10, 0, 1, 1), 0)
	completeHandshake(t, n, env, 2, mkAddr(10, 0, 1, 2), 0)
	env.run(time.Second)

	blk, err := n.MineBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	// Peer 1 requests the body; in the same batch a tx arrives from
	// peer 2 and must be announced to peer 1 — behind the 5.2s body.
	gd := &wire.MsgGetData{}
	gd.InvList = []wire.InvVect{{Type: wire.InvTypeBlock, Hash: blk.BlockHash()}}
	n.OnMessage(1, gd)
	tx := makeSpendTx(3)
	n.OnMessage(2, &tx)
	env.run(30 * time.Second)

	var bodyDelay, txDelay time.Duration
	for _, ev := range *relays {
		switch ev.Kind {
		case obs.KindRelayBlock:
			bodyDelay = max(bodyDelay, ev.Dur)
		case obs.KindRelayTx:
			txDelay = max(txDelay, ev.Dur)
		}
	}
	if bodyDelay < 5*time.Second {
		t.Errorf("body relay delay = %v, want >= ~5.2s", bodyDelay)
	}
	if txDelay < 4*time.Second {
		t.Errorf("tx relay delay = %v, want several seconds (queued behind the body)", txDelay)
	}
}
