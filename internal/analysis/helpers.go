package analysis

import (
	"repro/internal/chain"
	"repro/internal/wire"
)

// chainGenesis builds the genesis block used by analysis experiments.
func chainGenesis(tag string) *wire.MsgBlock {
	return chain.GenesisBlock(tag)
}

// RelayDelaysSeconds extracts the last-connection delays in seconds.
func RelayDelaysSeconds(obs []RelayObservation) []float64 {
	out := make([]float64, len(obs))
	for i, o := range obs {
		out[i] = o.LastDelay.Seconds()
	}
	return out
}
