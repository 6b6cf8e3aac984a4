// Package hybriddb reproduces "Load Sharing in Hybrid Distributed–
// Centralized Database Systems" (Ciciani, Dias, Yu; ICDCS 1988): a
// discrete-event simulator of the hybrid architecture — geographically
// distributed database systems attached to a central computing complex that
// replicates every local database — together with the paper's
// concurrency/coherency protocol, its analytical performance model, and its
// static and dynamic load-sharing strategies.
//
// The central question the library answers is where to run a "class A"
// transaction (one touching only its home region's data): at its home site,
// or shipped to the faster but remote central site. The decision trades CPU
// speed asymmetry and queueing against communications delay and, uniquely to
// this system, against cross-site data contention: local and central
// transactions touching the same replicated data conflict optimistically and
// resolve by aborting one side.
//
// Basic use:
//
//	cfg := hybriddb.DefaultConfig()       // the paper's §4.1 parameters
//	cfg.ArrivalRatePerSite = 2.5          // 25 tps across 10 sites
//	res, err := hybriddb.Run(cfg, hybriddb.Best(cfg))
//
// Strategies are constructed by the helpers below (None, StaticOptimal,
// AdaptiveStatic, QueueLengthHeuristic); Best returns the strategy the paper
// found strongest, min-average/nis. Analyze and OptimalShipFraction expose
// the §3.1 analytical model directly. The package's examples are its tour;
// every other policy runs through cmd/hybridsim -strategy.
package hybriddb

import (
	"hybriddb/internal/hybrid"
	"hybriddb/internal/model"
	"hybriddb/internal/routing"
	"hybriddb/internal/workload"
)

// Core simulation types. These are aliases of the internal engine types so
// the whole configuration and result surface is available unchanged.
type (
	// Config holds every simulation parameter; see DefaultConfig.
	Config = hybrid.Config
	// Result is the measured outcome of one simulation run.
	Result = hybrid.Result
	// Strategy routes incoming class A transactions.
	Strategy = routing.Strategy
	// ModelResult is the analytical model's steady-state solution.
	ModelResult = model.Result
	// RateSchedule is a cyclic piecewise-constant arrival-rate function
	// (Config.RateSchedules) — the "load fluctuations" the paper's
	// introduction motivates.
	RateSchedule = workload.Schedule
)

// DefaultConfig returns the paper's §4.1 parameters: 10 local sites of
// 1 MIPS, a 15 MIPS central site, 0.2 s one-way communications delay, 75%
// class A transactions, 10 database calls per transaction over a 32K-element
// lockspace, and the pathlengths of §3.1.
func DefaultConfig() Config { return hybrid.DefaultConfig() }

// Run builds and runs a simulation, returning the measured result.
func Run(cfg Config, s Strategy) (Result, error) {
	e, err := hybrid.New(cfg, s)
	if err != nil {
		return Result{}, err
	}
	return e.Run(), nil
}

// ---- Strategy constructors.

// None returns the no-load-sharing baseline: class A transactions always run
// at their home site.
func None() Strategy { return routing.AlwaysLocal{} }

// StaticOptimal computes the analytically optimal ship probability for the
// configuration (§3.1) and returns the corresponding static strategy along
// with the probability chosen.
func StaticOptimal(cfg Config) (Strategy, float64, error) {
	opt, err := model.OptimalShipFraction(cfg.ModelInput(0), 0.01)
	if err != nil {
		return nil, 0, err
	}
	return routing.NewStatic(opt.PShip, cfg.Seed^0x5bd1e995), opt.PShip, nil
}

// AdaptiveStatic returns the semi-static strategy: probabilistic shipping
// like StaticOptimal's, with the probability re-optimized from measured
// arrival rates every window seconds.
func AdaptiveStatic(cfg Config, window float64, seed uint64) (Strategy, error) {
	return routing.NewAdaptiveStatic(cfg.ModelParams(), cfg.PLocal, window, seed)
}

// QueueLengthHeuristic returns the §3.2.4 heuristic: ship when the central
// CPU queue (as last seen) is shorter than the local one.
func QueueLengthHeuristic() Strategy { return routing.QueueLength{} }

// Best returns the strategy the paper found best overall: it minimizes the
// estimated average response time of all running transactions, with
// utilizations from transactions-in-system counts (§3.2.2, curve F,
// min-average/nis).
func Best(cfg Config) Strategy {
	return routing.MinAverage{Params: cfg.ModelParams(), Estimator: routing.FromInSystem}
}

// ---- Analytical model.

// Analyze solves the §3.1 steady-state model for the configuration and a
// given static ship probability.
func Analyze(cfg Config, pShip float64) (ModelResult, error) {
	return model.Solve(cfg.ModelInput(pShip))
}

// OptimalShipFraction returns the ship probability minimizing the modeled
// average response time, with the model solution at that point.
func OptimalShipFraction(cfg Config) (float64, ModelResult, error) {
	opt, err := model.OptimalShipFraction(cfg.ModelInput(0), 0.01)
	if err != nil {
		return 0, ModelResult{}, err
	}
	return opt.PShip, opt.Result, nil
}
