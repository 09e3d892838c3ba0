package scenario

import (
	"fmt"

	"polystyrene/internal/runner"
)

// ChurnConfig drives a sustained-churn experiment: every round a fraction
// of the live population crashes and (optionally) the same number of
// fresh, empty nodes joins. The paper evaluates one catastrophic event;
// sustained churn is the regime its conclusion points at for future work
// ("the loss and reinjection of resources"), and this harness measures how
// much churn the shape survives.
type ChurnConfig struct {
	// Rate is the per-round fraction of live nodes that crash (e.g. 0.01
	// = 1% churn per round).
	Rate float64
	// Replace controls whether each crash is matched by a fresh joiner.
	Replace bool
	// Rounds is the churn period length.
	Rounds int
}

// ChurnOutcome summarises a churn run.
type ChurnOutcome struct {
	// Crashed and Joined count churn events over the run.
	Crashed, Joined int
	// FinalHomogeneity and FinalReference are measured after a settling
	// period with churn stopped.
	FinalHomogeneity float64
	FinalReference   float64
	// Reliability is the surviving fraction of original data points.
	Reliability float64
	// ShapeHeld reports FinalHomogeneity < FinalReference.
	ShapeHeld bool
}

// RunChurn converges the system, applies sustained random churn, lets it
// settle for settleRounds, and reports the outcome. An engine it
// allocates itself is closed before returning (a supplied cfg.Engine
// stays open — the pooling caller owns it).
func RunChurn(cfg Config, churn ChurnConfig, convergeRounds, settleRounds int) (ChurnOutcome, error) {
	if churn.Rate < 0 || churn.Rate >= 1 {
		return ChurnOutcome{}, fmt.Errorf("scenario: churn rate %v out of [0,1)", churn.Rate)
	}
	cfg.SkipMetrics = true
	sc, err := New(cfg)
	if err != nil {
		return ChurnOutcome{}, err
	}
	if cfg.Engine == nil {
		defer sc.Close()
	}
	sc.Run(convergeRounds)
	return runChurnTail(sc, churn, settleRounds), nil
}

// runChurnTail applies the churn period to a converged (or warm-restored)
// scenario — the shared second half of RunChurn and RunChurnFrom.
func runChurnTail(sc *Scenario, churn ChurnConfig, settleRounds int) ChurnOutcome {
	var out ChurnOutcome
	rng := sc.Engine.Rand()
	for round := 0; round < churn.Rounds; round++ {
		kills := int(float64(sc.Engine.NumLive()) * churn.Rate)
		live := sc.Engine.LiveIDs()
		for _, idx := range rng.Sample(len(live), kills) {
			sc.Engine.Kill(live[idx])
			out.Crashed++
		}
		if churn.Replace && kills > 0 {
			sc.Reinject(kills)
			out.Joined += kills
		}
		sc.Run(1)
	}
	sc.Run(settleRounds)

	out.FinalHomogeneity = sc.Homogeneity()
	out.FinalReference = sc.ReferenceHomogeneity()
	out.Reliability = sc.Reliability()
	out.ShapeHeld = out.FinalHomogeneity < out.FinalReference
	return out
}

// ChurnSweepOpts bundles the execution parameters of a churn-rate sweep,
// mirroring RunOpts for the reshaping harnesses.
type ChurnSweepOpts struct {
	// ChurnRounds is the churn period length per rate.
	ChurnRounds int
	// ConvergeRounds precedes the churn period.
	ConvergeRounds int
	// SettleRounds of quiet follow the churn before measuring.
	SettleRounds int
	// Parallelism bounds concurrent rates: 0 means GOMAXPROCS, 1 serial.
	Parallelism int
	// ExchangeParallelism caps per-rate intra-round exchange workers; see
	// RunOpts.ExchangeParallelism (0 keeps the sequential engine).
	ExchangeParallelism int
	// MemBudgetBytes bounds concurrent rates by estimated engine
	// footprint; see RunOpts.MemBudgetBytes.
	MemBudgetBytes int64
	// PoolEngines recycles engines across rates via sim.Engine.Reset;
	// see RunOpts.PoolEngines.
	PoolEngines bool
	// WarmStart converges one cell and restores its checkpoint into every
	// rate instead of re-converging per rate; see RunOpts.WarmStart.
	WarmStart bool
	// WarmSnapshot supplies an externally produced ConvergedSnapshot of
	// the base configuration (e.g. loaded from disk by polychurn -resume).
	// Implies WarmStart; its digest must match the sweep's cells.
	WarmSnapshot []byte
}

// ChurnSweep measures shape survival across churn rates, one outcome per
// rate. Rates run concurrently via the parallel runner (each owns its
// engine and seed), bounded by opts.Parallelism; results land at their
// rate's index, so the output is deterministic regardless of scheduling.
func ChurnSweep(base Config, rates []float64, opts ChurnSweepOpts) ([]ChurnOutcome, error) {
	outs := make([]ChurnOutcome, len(rates))
	est := base
	est.Polystyrene = true
	run := RunOpts{
		Parallelism:         opts.Parallelism,
		ExchangeParallelism: opts.ExchangeParallelism,
		MemBudgetBytes:      opts.MemBudgetBytes,
		PoolEngines:         opts.PoolEngines,
	}
	cellPar, exPar := run.compose(len(rates), est.EstimatedFootprintBytes())
	pool := run.pool()
	defer pool.Drain()

	warm := opts.WarmSnapshot
	if warm == nil && opts.WarmStart {
		cfg := base
		cfg.Polystyrene = true
		cfg.ExchangeParallelism = exPar
		cfg.Seed = sweepSeed(base.Seed, "churn-warm")
		release := pool.Acquire(&cfg)
		b, err := ConvergedSnapshot(cfg, opts.ConvergeRounds)
		release()
		if err != nil {
			return nil, err
		}
		warm = b
	}

	err := runner.Map(cellPar, len(rates), func(i int) error {
		cfg := base
		cfg.Seed = sweepSeed(base.Seed, "churn", uint64(i))
		cfg.Polystyrene = true
		cfg.ExchangeParallelism = exPar
		defer pool.Acquire(&cfg)()
		churn := ChurnConfig{Rate: rates[i], Replace: true, Rounds: opts.ChurnRounds}
		var out ChurnOutcome
		var err error
		if warm != nil {
			out, err = RunChurnFrom(cfg, warm, churn, opts.SettleRounds)
		} else {
			out, err = RunChurn(cfg, churn, opts.ConvergeRounds, opts.SettleRounds)
		}
		if err != nil {
			return err
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}
