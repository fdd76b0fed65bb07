// Relay-policy ablation (§IV-C and §V): the same network workload under
// Bitcoin Core's round-robin message scheduling (the stock policy set),
// the paper's proposed priority block relay, and the idealized lock-step
// broadcast of the theoretical models. The three policy sets simulate
// concurrently (par.Replicate); rows print in policy order either way.
//
//	go run ./examples/relaypolicy
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/analysis"
	"repro/internal/node"
	"repro/internal/par"
	"repro/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "relaypolicy:", err)
		os.Exit(1)
	}
}

func run() error {
	policies := []node.PolicySet{
		node.MustPolicySet(node.StockPolicyName),
		node.MustPolicySet("priority-relay"),
		node.MustPolicySet("ideal-broadcast"),
	}

	fmt.Println("relay-policy ablation: 50 nodes, 2 virtual hours, heavy tx congestion")
	fmt.Printf("%-18s %10s %10s %10s %10s %12s\n",
		"policy", "blk mean", "blk p99", "blk max", "tx max", "observed sync")

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	rows := make([]string, len(policies))
	err := par.Replicate(ctx, len(policies), func(ctx context.Context, i int) error {
		policy := policies[i]
		res, err := analysis.RunPropagation(ctx, analysis.PropagationConfig{
			Seed:                    9,
			NumReachable:            50,
			Duration:                2 * time.Hour,
			TxPerBlock:              1500,
			CompactBlocks:           true,
			Policies:                policy,
			ChurnDeparturesPer10Min: 1.5,
		})
		if err != nil {
			return fmt.Errorf("%v: %w", policy, err)
		}
		blocks := analysis.SummarizeRelays(res.BlockRelays)
		txs := analysis.SummarizeRelays(res.TxRelays)
		rows[i] = fmt.Sprintf("%-18s %9.2fs %9.2fs %9.2fs %9.2fs %11.1f%%",
			policy, blocks.Mean, blocks.P99, blocks.Max, txs.Max,
			100*stats.Mean(res.ObservedSyncSamples))
		return nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Println(row)
	}

	fmt.Println("\nexpectation (paper §IV-C/§V): under round-robin, block announcements")
	fmt.Println("queue behind pending transaction traffic and reach the last connection")
	fmt.Println("late (the tail); the §V priority relay lets blocks jump those queues,")
	fmt.Println("collapsing the block tail at a small cost to transaction tails;")
	fmt.Println("broadcast is the theoretical lower bound the literature assumes.")
	return nil
}
