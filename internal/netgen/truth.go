package netgen

import (
	"slices"
	"time"

	"repro/internal/addridx"
)

// This file exposes the simulator's ground truth for estimator
// validation: the true per-station gossip out-degree that live-network
// measurements can only infer. It is a pure function of (Params, t), like
// everything else derived from the universe, so estimator-error
// experiments are deterministic and cacheable.

// TrueDegreeFrom returns station s's true gossip out-degree at t: the
// number of DISTINCT addresses in the address book it would reveal
// through exhaustive GETADDR. Books are sampled with replacement, so
// this is strictly less than the book length whenever a draw repeats —
// and the distinct count is the exact quantity iterative
// address-return sampling (arXiv:2108.00815) converges to, since a
// crawler can never distinguish one book slot from a repeated draw of
// the same address. The candidate pools come precomputed (the
// AddrBookFrom pattern): an experiment measuring thousands of stations
// scans the universe once, not once per station. The book is
// regenerated from the same deterministic per-(station, crawl-interval)
// stream AddrBookFrom uses, so the truth matches what any crawl at t
// actually observes. IDs and addresses are in bijection, so the
// distinct addresses are counted as distinct book IDs.
func (u *Universe) TrueDegreeFrom(s addridx.ID, t time.Time, online, visible []addridx.ID) int {
	_, ids := u.AppendAddrBook(nil, []addridx.ID{}, s, t, online, visible)
	slices.Sort(ids)
	return len(slices.Compact(ids))
}
