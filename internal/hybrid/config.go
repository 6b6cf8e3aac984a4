// Package hybrid is the core of the reproduction: a discrete-event simulator
// of the hybrid distributed–centralized database architecture and its
// concurrency/coherency protocol (§2 of the paper), driven by a pluggable
// load-sharing strategy (§3). The simulation explicitly models lock tables
// and lock contention, CPU queueing and deterministic service times, I/O
// waits, communications delays, asynchronous update propagation with
// coherence counts, the authentication phase of central commits, cross-site
// invalidations and aborts, and deadlock aborts — the elements §4.1 lists.
package hybrid

import (
	"errors"
	"fmt"
	"math"

	"hybriddb/internal/model"
	"hybriddb/internal/workload"
)

// Feedback selects when local sites refresh their view of the central
// site's state (queue length, transactions in system, locks held).
type Feedback uint8

// Feedback modes.
const (
	// FeedbackAuthOnly refreshes the view only when an authentication
	// message of a centrally running transaction arrives — the paper's
	// assumption (§4.2).
	FeedbackAuthOnly Feedback = iota + 1
	// FeedbackAllMessages piggybacks the central state on every message
	// from the central site (authentication, commit/release, update acks,
	// completion replies).
	FeedbackAllMessages
	// FeedbackIdeal lets strategies read the instantaneous central state —
	// the paper's "ideal case" reference.
	FeedbackIdeal
)

func (f Feedback) String() string {
	switch f {
	case FeedbackAuthOnly:
		return "auth-only"
	case FeedbackAllMessages:
		return "all-messages"
	case FeedbackIdeal:
		return "ideal"
	default:
		return fmt.Sprintf("Feedback(%d)", uint8(f))
	}
}

// ParseFeedback is the inverse of Feedback.String over the three modes.
func ParseFeedback(s string) (Feedback, error) {
	for _, f := range []Feedback{FeedbackAuthOnly, FeedbackAllMessages, FeedbackIdeal} {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("hybrid: unknown feedback mode %q (auth-only, all-messages or ideal)", s)
}

// Config holds every simulation parameter. DefaultConfig returns the §4.1
// values; experiments vary ArrivalRatePerSite, CommDelay and the strategy.
type Config struct {
	// Topology and hardware.
	Sites       int     // number of local sites
	LocalMIPS   float64 // local processor speed, MIPS
	CentralMIPS float64 // central processor speed, MIPS
	CommDelay   float64 // one-way communications delay, seconds

	// Workload.
	ArrivalRatePerSite float64 // Poisson arrival rate per site, txn/s
	// SiteRates optionally gives each site its own arrival rate,
	// overriding ArrivalRatePerSite (regional load imbalance — the
	// "load fluctuations" the paper's introduction motivates). When set
	// its length must equal Sites and every rate must be positive.
	SiteRates []float64
	// RateSchedules optionally gives each site a cyclic time-varying
	// arrival-rate schedule (a non-homogeneous Poisson process), modelling
	// diurnal load fluctuations. When set its length must equal Sites and
	// it overrides both ArrivalRatePerSite and SiteRates.
	RateSchedules []workload.Schedule
	PLocal        float64 // class A fraction
	PWrite        float64 // exclusive-mode probability per lock request
	CallsPerTxn   int     // database calls (= lock requests) per txn
	Lockspace     uint32  // total lock elements, partitioned by site

	// Pathlengths and I/O (§3.1).
	InstrPerCall  float64 // instructions per database call
	InstrOverhead float64 // message processing + initiation instructions per txn
	IOTimePerCall float64 // I/O time per database call, first run only
	SetupIOTime   float64 // initial I/O before locks are held

	// Protocol details.
	RestartDelay float64  // delay before re-running an aborted transaction
	Feedback     Feedback // how central state reaches the local sites
	// DisksPerSite and DisksCentral, when positive, model each site's
	// (respectively the central complex's) I/O as a bank of FCFS disks
	// instead of the paper's pure-delay assumption: each I/O of
	// IOTimePerCall (or SetupIOTime) seconds queues at one disk, selected
	// by the referenced element, so hot data creates I/O contention. Zero
	// (the default) keeps the paper's infinite-server I/O.
	DisksPerSite int
	DisksCentral int
	// UpdateProcInstr is the central-site CPU pathlength charged per
	// asynchronous-update message (not per element). Zero — the default,
	// and the analytical model's assumption — makes update application
	// free; a positive value makes the message overheads §2 says batching
	// was designed to reduce actually visible in the central utilization.
	UpdateProcInstr float64
	// UpdateBatchWindow, when positive, batches a site's asynchronous
	// update messages: updates committed within the window travel to the
	// central site in one message (§2: "these asynchronous messages may
	// also be batched to reduce the overheads involved"). Coherence counts
	// still rise at commit time, so batching lengthens the window in which
	// central authentications are NACKed — the trade-off an experiment can
	// measure. Zero (the default) sends each commit's updates immediately.
	UpdateBatchWindow float64
	// EpochLength, when positive, selects epoch-batched update propagation
	// (the STAR-style alternative to the per-commit window above): every
	// site accumulates its committed updates and flushes them in one
	// message at its next epoch boundary k*EpochLength, on a ticker of its
	// own (SiteNode.armEpochTick). The sites of one simulation count
	// boundaries from the same zero and so share the epoch grid — the
	// central complex sees synchronized update bursts instead of a Poisson
	// trickle, the head-to-head comparison the root package's
	// Example_epochs runs; the sites of a live cluster each tick on their
	// own process clock. Mutually exclusive with UpdateBatchWindow; zero
	// (the default) keeps per-commit async propagation.
	EpochLength float64

	// Contention realism (DESIGN.md §16).
	// SkewTheta is the Zipf exponent of the lock-reference distribution in
	// [0, 1): 0 (the default) is the paper's uniform assumption; larger
	// values concentrate references on each site's hot fragment with
	// per-site key affinity (workload.Config.SkewTheta).
	SkewTheta float64
	// CentralHotFraction is the fraction of each partition replicated at
	// the central complex, in [0, 1]. 1 (the default) is the paper's full
	// replication. Below 1 only the hottest fragment of each partition —
	// its first floor(fraction*partition) elements, the head of the skewed
	// reference distribution — is centrally resident; a central-path call
	// referencing a cold element pays ColdFetchDelay before requesting its
	// lock (first execution only, mirroring the first-run-only I/O).
	CentralHotFraction float64
	// ColdFetchDelay is the seconds a central execution waits to fetch a
	// cold (non-replicated) element under partial replication. Surfaced as
	// obs.ColdFetch on the bus and Result.ColdFetches.
	ColdFetchDelay float64

	// Run control.
	Seed      uint64  // master RNG seed
	Warmup    float64 // simulated seconds discarded before measuring
	Duration  float64 // measured simulated seconds
	SelfCheck bool    // run invariant checks during the simulation (slow)
	// Shards > 1 runs the simulation on a sharded parallel core: the sites
	// are distributed in contiguous blocks over Shards-1 event-queue shards
	// (shard count decoupled from site count — GOMAXPROCS-sized counts are
	// the sweet spot at any N), the
	// central complex owns the remaining shard, and the shards synchronize
	// conservatively with CommDelay as the lookahead window (DESIGN.md §12).
	// Results are bit-identical to the sequential core (Shards <= 1), which
	// the internal/simtest differential gate enforces. The engine falls
	// back to the sequential loop when the configuration cannot shard
	// (EffectiveShards says why) or an external observer/tracer is
	// subscribed (observers see one interleaved event stream only
	// sequentially).
	Shards int
	// SeriesBucket, when positive, records a mean-response-time and
	// queue-length time series with the given bucket width in seconds
	// (Result.RTSeries) — useful for watching strategies adapt to load
	// fluctuations.
	SeriesBucket float64
	// CaptureHistograms attaches full response-time histogram dumps
	// (bucket counts with under/over tallies) to the Result, for run
	// manifests. Off by default: the dumps allocate, and the observers-off
	// fast path must stay allocation-identical when nothing asked for them.
	CaptureHistograms bool
}

// DefaultConfig returns the parameters of §4.1 of the paper, with the
// substitutions recorded in DESIGN.md for values the paper took from the
// [YU87] trace study.
func DefaultConfig() Config {
	return Config{
		Sites:              10,
		LocalMIPS:          1,
		CentralMIPS:        15,
		CommDelay:          0.2,
		ArrivalRatePerSite: 1.0,
		PLocal:             0.75,
		PWrite:             0.25,
		CallsPerTxn:        10,
		Lockspace:          32_768,
		InstrPerCall:       30_000,
		InstrOverhead:      150_000,
		IOTimePerCall:      0.025,
		SetupIOTime:        0.035,
		RestartDelay:       0,
		Feedback:           FeedbackAuthOnly,
		CentralHotFraction: 1,
		Seed:               1,
		Warmup:             200,
		Duration:           800,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	// Reject NaN and ±Inf up front: a NaN arrival rate or delay sails
	// through every magnitude comparison below (NaN compares false) and
	// would poison event timestamps — found by FuzzConfig.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"local MIPS", c.LocalMIPS},
		{"central MIPS", c.CentralMIPS},
		{"comm delay", c.CommDelay},
		{"arrival rate", c.ArrivalRatePerSite},
		{"p_local", c.PLocal},
		{"p_write", c.PWrite},
		{"instr per call", c.InstrPerCall},
		{"instr overhead", c.InstrOverhead},
		{"io time per call", c.IOTimePerCall},
		{"setup io time", c.SetupIOTime},
		{"restart delay", c.RestartDelay},
		{"update pathlength", c.UpdateProcInstr},
		{"update batch window", c.UpdateBatchWindow},
		{"epoch length", c.EpochLength},
		{"skew theta", c.SkewTheta},
		{"central hot fraction", c.CentralHotFraction},
		{"cold fetch delay", c.ColdFetchDelay},
		{"warmup", c.Warmup},
		{"duration", c.Duration},
		{"series bucket", c.SeriesBucket},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("hybrid: %s %v is not finite", f.name, f.v)
		}
	}
	for i, r := range c.SiteRates {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("hybrid: site %d rate %v is not finite", i, r)
		}
	}
	for i, s := range c.RateSchedules {
		for j, step := range s {
			if math.IsNaN(step.Rate) || math.IsInf(step.Rate, 0) ||
				math.IsNaN(step.Duration) || math.IsInf(step.Duration, 0) {
				return fmt.Errorf("hybrid: site %d schedule step %d is not finite", i, j)
			}
		}
	}

	wl := c.WorkloadConfig()
	if err := wl.Validate(); err != nil {
		return err
	}
	if err := c.ModelParams().Validate(); err != nil {
		return err
	}
	if c.RateSchedules != nil {
		if len(c.RateSchedules) != c.Sites {
			return fmt.Errorf("hybrid: %d rate schedules for %d sites", len(c.RateSchedules), c.Sites)
		}
		for i, s := range c.RateSchedules {
			if err := s.Validate(); err != nil {
				return fmt.Errorf("hybrid: site %d: %w", i, err)
			}
		}
	}
	if c.SiteRates != nil {
		if len(c.SiteRates) != c.Sites {
			return fmt.Errorf("hybrid: %d site rates for %d sites", len(c.SiteRates), c.Sites)
		}
		for i, r := range c.SiteRates {
			if r <= 0 {
				return fmt.Errorf("hybrid: site %d rate %v", i, r)
			}
		}
	}
	switch {
	case c.ArrivalRatePerSite <= 0:
		return fmt.Errorf("hybrid: arrival rate %v", c.ArrivalRatePerSite)
	case c.RestartDelay < 0:
		return fmt.Errorf("hybrid: negative restart delay %v", c.RestartDelay)
	case c.UpdateBatchWindow < 0:
		return fmt.Errorf("hybrid: negative batch window %v", c.UpdateBatchWindow)
	case c.EpochLength < 0:
		return fmt.Errorf("hybrid: negative epoch length %v", c.EpochLength)
	case c.EpochLength > 0 && c.UpdateBatchWindow > 0:
		return fmt.Errorf("hybrid: epoch length %v and batch window %v are mutually exclusive propagation modes",
			c.EpochLength, c.UpdateBatchWindow)
	case c.CentralHotFraction < 0 || c.CentralHotFraction > 1:
		return fmt.Errorf("hybrid: central hot fraction %v out of [0,1]", c.CentralHotFraction)
	case c.ColdFetchDelay < 0:
		return fmt.Errorf("hybrid: negative cold fetch delay %v", c.ColdFetchDelay)
	case c.DisksPerSite < 0 || c.DisksCentral < 0:
		return fmt.Errorf("hybrid: negative disk counts %d/%d", c.DisksPerSite, c.DisksCentral)
	case c.UpdateProcInstr < 0:
		return fmt.Errorf("hybrid: negative update pathlength %v", c.UpdateProcInstr)
	case c.Warmup < 0:
		return fmt.Errorf("hybrid: negative warmup %v", c.Warmup)
	case c.Duration <= 0:
		return errors.New("hybrid: duration must be positive")
	case c.SeriesBucket < 0:
		return fmt.Errorf("hybrid: negative series bucket %v", c.SeriesBucket)
	case c.Shards < 0:
		return fmt.Errorf("hybrid: negative shard count %d", c.Shards)
	}
	switch c.Feedback {
	case FeedbackAuthOnly, FeedbackAllMessages, FeedbackIdeal:
	default:
		return fmt.Errorf("hybrid: unknown feedback mode %v", c.Feedback)
	}
	return nil
}

// CheckSpec rejects a transaction input the lifecycle cannot run: it indexes
// Elements and Modes by call number, CallsPerTxn of each, and sends the
// completion to HomeSite. It is the one check on an input that did not come
// from the run's own generator — a replayed trace, a live submission, a
// shipped frame — and allocates only when it fails.
func CheckSpec(cfg *Config, spec *workload.Txn) error {
	switch {
	case len(spec.Elements) != cfg.CallsPerTxn:
		return fmt.Errorf("hybrid: txn %d has %d elements, the configuration runs %d calls", spec.ID, len(spec.Elements), cfg.CallsPerTxn)
	case len(spec.Modes) != len(spec.Elements):
		return fmt.Errorf("hybrid: txn %d has %d lock modes for %d elements", spec.ID, len(spec.Modes), len(spec.Elements))
	case spec.HomeSite < 0 || spec.HomeSite >= cfg.Sites:
		return fmt.Errorf("hybrid: txn %d home site %d out of range [0,%d)", spec.ID, spec.HomeSite, cfg.Sites)
	}
	return nil
}

// EffectiveShards returns the event-queue shards a run of c uses: Shards
// capped at Sites+1 (no more shards than partitions), or 1 and why not when
// c asks for shards but cannot use them. An engine with an external observer
// runs sequentially on top of this (Engine.Parallel).
func (c Config) EffectiveShards() (n int, why string) {
	switch {
	case c.Shards <= 1:
		return 1, ""
	case c.CommDelay <= 0:
		return 1, "zero comm delay leaves no conservative lookahead window"
	case c.Feedback == FeedbackIdeal:
		return 1, "ideal feedback reads central state with no delay"
	}
	return min(c.Shards, c.Sites+1), ""
}

// SiteRate returns the (homogeneous-Poisson) arrival rate at a site,
// honouring SiteRates. With RateSchedules set the rate is time-varying and
// this returns the schedule's mean rate.
func (c Config) SiteRate(site int) float64 {
	if c.RateSchedules != nil {
		return c.RateSchedules[site].MeanRate()
	}
	if c.SiteRates != nil {
		return c.SiteRates[site]
	}
	return c.ArrivalRatePerSite
}

// WorkloadConfig derives the workload generator configuration.
func (c Config) WorkloadConfig() workload.Config {
	return workload.Config{
		Sites:       c.Sites,
		Lockspace:   c.Lockspace,
		CallsPerTxn: c.CallsPerTxn,
		PLocal:      c.PLocal,
		PWrite:      c.PWrite,
		SkewTheta:   c.SkewTheta,
	}
}

// ModelParams derives the analytical-model parameters. The dynamic
// strategies and the static optimizer take these.
func (c Config) ModelParams() model.Params {
	return model.Params{
		Sites:         c.Sites,
		LocalMIPS:     c.LocalMIPS,
		CentralMIPS:   c.CentralMIPS,
		CommDelay:     c.CommDelay,
		CallsPerTxn:   c.CallsPerTxn,
		InstrPerCall:  c.InstrPerCall,
		InstrOverhead: c.InstrOverhead,
		IOTimePerCall: c.IOTimePerCall,
		SetupIOTime:   c.SetupIOTime,
		Lockspace:     c.Lockspace,
		PWrite:        c.PWrite,
		SkewTheta:     c.SkewTheta,
		// Zero-valued Params from direct literals keep the uniform,
		// fully-replicated model: the solver treats HotFraction 0 with
		// ColdFetchDelay 0 identically to full replication.
		CentralHotFraction: c.CentralHotFraction,
		ColdFetchDelay:     c.ColdFetchDelay,
	}
}

// ModelInput derives the steady-state model input for a given static ship
// probability.
func (c Config) ModelInput(pShip float64) model.Input {
	return model.Input{
		Params:             c.ModelParams(),
		ArrivalRatePerSite: c.ArrivalRatePerSite,
		PLocal:             c.PLocal,
		PShip:              pShip,
	}
}
