package netgen

import (
	"math/rand/v2"
	"time"

	"repro/internal/addridx"
)

// This file derives the deterministic per-station RNG streams used on
// the crawl hot paths. Every stream is a pure function of (universe
// seed, experiment instant, dense StationID), so the parallel crawl
// fan-out produces byte-identical results at any worker count — no
// shared sequential generator is consumed in dial order.
//
// The streams are PCG (math/rand/v2), seeded in O(1). The previous
// implementation seeded one math/rand lagged-Fibonacci source per dial
// and per address book, and that 607-word seeding dominated crawl CPU
// profiles (~50% of samples) before any address was even sampled.

// splitmix64 is the SplitMix64 finalizer, used to decorrelate the seed
// components before they select a PCG stream.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// stationStream folds a stream selector and a dense station ID into the
// second PCG seed word.
func stationStream(sel uint64, id addridx.ID) uint64 {
	return splitmix64(sel ^ splitmix64(uint64(id)+0x9e3779b97f4a7c15))
}

// StationSeed returns the two PCG seed words for station id at instant
// at — the dial/session randomness of the popsim crawler backend — so
// hot paths can reseed a pooled rand.PCG in place instead of allocating
// a fresh generator per dial.
func StationSeed(seed int64, at time.Time, id addridx.ID) (uint64, uint64) {
	return uint64(seed), stationStream(uint64(at.UnixNano()), id)
}

// bookRand returns the RNG stream for station id's address book in
// crawl interval crawlIdx. Book content is keyed to the interval, not
// the instant, so repeated GETADDR drains within one crawl see one
// stable book.
func bookRand(seed int64, crawlIdx int64, id addridx.ID) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stationStream(splitmix64(uint64(crawlIdx)), id)))
}
