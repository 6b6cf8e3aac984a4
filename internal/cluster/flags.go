package cluster

// Shared CLI flag plumbing for cmd/hybridd and cmd/hybridload. Every node
// of a cluster and its load generator must agree on the configuration (the
// workload shape decides partitioning and routing; the service times decide
// the emulation), so both binaries register the same flag set and the
// operator passes the same values to each process.

import (
	"flag"

	"hybriddb/internal/hybrid"
)

// DefaultLiveConfig is the default operating point of the live binaries: the
// simulator's default workload shape with service times scaled down 10x
// (millisecond range), so a loopback cluster on one machine emulates
// faithfully — wall-clock timer slop stays small relative to every burst —
// and a demo run completes in seconds. Override any knob by flag.
func DefaultLiveConfig() hybrid.Config {
	cfg := hybrid.DefaultConfig()
	cfg.Sites = 4
	cfg.CommDelay = 0.02
	cfg.ArrivalRatePerSite = 8
	cfg.InstrPerCall = 3000
	cfg.InstrOverhead = 15000
	cfg.IOTimePerCall = 0.0025
	cfg.SetupIOTime = 0.0035
	cfg.RestartDelay = 0.01
	cfg.Feedback = hybrid.FeedbackAllMessages
	return cfg
}

// ConfigFlags binds the cluster configuration knobs to a flag set.
type ConfigFlags struct {
	sites       *int
	localMIPS   *float64
	centralMIPS *float64
	delay       *float64
	rate        *float64
	plocal      *float64
	pwrite      *float64
	calls       *int
	lockspace   *uint64
	instrCall   *float64
	instrOver   *float64
	ioCall      *float64
	ioSetup     *float64
	restart     *float64
	feedback    *string
	seed        *uint64
	skew        *float64
	hotFraction *float64
	coldFetch   *float64
}

// RegisterConfigFlags registers the shared configuration flags on fs with
// DefaultLiveConfig defaults.
func RegisterConfigFlags(fs *flag.FlagSet) *ConfigFlags {
	def := DefaultLiveConfig()
	return &ConfigFlags{
		sites:       fs.Int("sites", def.Sites, "number of local sites in the cluster"),
		localMIPS:   fs.Float64("mips-local", def.LocalMIPS, "local processor speed, MIPS"),
		centralMIPS: fs.Float64("mips-central", def.CentralMIPS, "central processor speed, MIPS"),
		delay:       fs.Float64("delay", def.CommDelay, "one-way communications delay, seconds (emulated at the receiver)"),
		rate:        fs.Float64("rate", def.ArrivalRatePerSite, "nominal arrival rate per site, txn/s (the load generator's default)"),
		plocal:      fs.Float64("plocal", def.PLocal, "fraction of class A (local-data) transactions"),
		pwrite:      fs.Float64("pwrite", def.PWrite, "probability a lock request is exclusive"),
		calls:       fs.Int("calls", def.CallsPerTxn, "database calls per transaction"),
		lockspace:   fs.Uint64("lockspace", uint64(def.Lockspace), "total lock elements, partitioned across sites"),
		instrCall:   fs.Float64("instr-call", def.InstrPerCall, "instructions per database call"),
		instrOver:   fs.Float64("instr-overhead", def.InstrOverhead, "initiation + message instructions per transaction"),
		ioCall:      fs.Float64("io-call", def.IOTimePerCall, "I/O seconds per database call (first run)"),
		ioSetup:     fs.Float64("io-setup", def.SetupIOTime, "setup I/O seconds before locks are held"),
		restart:     fs.Float64("restart-delay", def.RestartDelay, "delay before re-running an aborted transaction, seconds"),
		feedback:    fs.String("feedback", def.Feedback.String(), "central-state feedback: auth-only or all-messages"),
		seed:        fs.Uint64("seed", def.Seed, "configuration seed (strategy forking; the load generator seeds the workload)"),
		skew:        fs.Float64("skew", def.SkewTheta, "Zipf exponent of the lock-reference distribution (0 = uniform)"),
		hotFraction: fs.Float64("hot-fraction", def.CentralHotFraction, "fraction of each partition replicated at central (1 = full replication)"),
		coldFetch:   fs.Float64("cold-fetch", def.ColdFetchDelay, "seconds a central execution waits to fetch a cold element, first run only"),
	}
}

// Config assembles and validates the configuration from the parsed flags.
func (f *ConfigFlags) Config() (hybrid.Config, error) {
	cfg := DefaultLiveConfig()
	cfg.Sites = *f.sites
	cfg.LocalMIPS = *f.localMIPS
	cfg.CentralMIPS = *f.centralMIPS
	cfg.CommDelay = *f.delay
	cfg.ArrivalRatePerSite = *f.rate
	cfg.PLocal = *f.plocal
	cfg.PWrite = *f.pwrite
	cfg.CallsPerTxn = *f.calls
	cfg.Lockspace = uint32(*f.lockspace)
	cfg.InstrPerCall = *f.instrCall
	cfg.InstrOverhead = *f.instrOver
	cfg.IOTimePerCall = *f.ioCall
	cfg.SetupIOTime = *f.ioSetup
	cfg.RestartDelay = *f.restart
	cfg.Seed = *f.seed
	cfg.SkewTheta = *f.skew
	cfg.CentralHotFraction = *f.hotFraction
	cfg.ColdFetchDelay = *f.coldFetch
	fb, err := hybrid.ParseFeedback(*f.feedback)
	if err != nil {
		return cfg, err
	}
	cfg.Feedback = fb
	// validate rejects ideal feedback, which only the simulator can honor.
	return cfg, validate(cfg)
}
