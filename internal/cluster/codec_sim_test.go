package cluster

// The protocol through the codec, on simulated time: the proof that the
// seven netx frames carry everything hybrid's receive handlers need. N site
// nodes and one central node — the constructors StartSite and StartCentral
// use — run on one simulator, joined by this package's own siteLink /
// centralLink: every message is netx-encoded on send and netx-decoded on
// receive, each node resolves transaction ids against its own tables,
// snapshots are stamped now − CommDelay by the receiver, and the decoded
// messages ride a comm.NetworkOf to the links' deliver. One recorded trace is
// replayed through that assembly and through hybrid.New(cfg).Run(); every
// partition's event counts and distributions, folded from the bus, must be
// equal, bit for bit.

import (
	"bytes"
	"reflect"
	"testing"

	"hybriddb/internal/comm"
	"hybriddb/internal/exec"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/netx"
	"hybriddb/internal/rng"
	"hybriddb/internal/routing"
	"hybriddb/internal/sim"
	"hybriddb/internal/stats"
	"hybriddb/internal/workload"
)

// partitionTally folds a run's bus into each partition's obs.Counts and
// distTally — sites by index, central last — as a live node folds its own.
// Accumulation follows emission order, which one event queue fixes, so equal
// event streams give equal bits.
type partitionTally struct {
	counts []obs.Counts
	dists  []*distTally
}

func newPartitionTally(sites int) *partitionTally {
	p := &partitionTally{counts: make([]obs.Counts, sites+1)}
	for range sites + 1 {
		p.dists = append(p.dists, newDistTally())
	}
	return p
}

func (p *partitionTally) OnEvent(ev obs.Event) {
	if ev.Kind == obs.MeasureStart || ev.Kind == obs.QueueSample {
		return // the engine's coordinator events: no node emits them
	}
	i := ev.Site
	if i < 0 {
		i = len(p.counts) - 1
	}
	p.counts[i].Add(ev)
	p.dists[i].OnEvent(ev)
}

// total sums a kind's count over the partitions.
func (p *partitionTally) total(k obs.Kind) (n uint64) {
	for i := range p.counts {
		n += p.counts[i][k]
	}
	return n
}

// codecCluster is the node assembly: sites and central on one simulator,
// their links encoding into each other over a comm.NetworkOf.
type codecCluster struct {
	sim     *sim.Simulator
	net     *comm.NetworkOf[hybrid.Message]
	sites   []*hybrid.SiteNode
	central *hybrid.CentralNode
}

func newCodecCluster(t *testing.T, cfg hybrid.Config, strategies []routing.Strategy, o obs.Observer) *codecCluster {
	t.Helper()
	s := sim.New()
	cc := &codecCluster{sim: s}
	stray := func(msgType byte, txn int64) { t.Errorf("stray message type %d for txn %d", msgType, txn) }

	siteLinks := make([]*siteLink, cfg.Sites)
	centralL := &centralLink{cfg: &cfg, stray: stray, accept: func(_ *netx.Conn, spec *workload.Txn) bool {
		if cc.central.Running(spec.ID) {
			t.Errorf("duplicate ship of txn %d", spec.ID)
			return false
		}
		return true
	}}
	// Like a live node: decode where the frame arrives, deliver the message
	// one link delay later on the receiver's executor.
	cc.net = comm.NewNetworkOf(s, cfg.Sites, cfg.CommDelay,
		func(m hybrid.Message) { centralL.deliver(m, nil) },
		func(m hybrid.Message) { siteLinks[m.Site].deliver(m) })
	centralL.send = func(site int, msgType byte, payload []byte) {
		m, err := siteLinks[site].receive(msgType, payload)
		if err != nil {
			t.Fatalf("site %d cannot decode message type %d: %v", site, msgType, err)
		}
		cc.net.ToSite(site, m)
	}
	var err error
	if cc.central, err = hybrid.NewCentralNode(cfg, exec.Sim(s), centralL, o); err != nil {
		t.Fatal(err)
	}
	centralL.node = cc.central
	for i := range siteLinks {
		i := i
		l := &siteLink{site: i, clock: exec.Sim(s), delay: cfg.CommDelay, stray: stray}
		l.send = func(msgType byte, _ int64, payload []byte) {
			m, err := centralL.receive(msgType, payload)
			if err != nil {
				t.Fatalf("central cannot decode message type %d from site %d: %v", msgType, i, err)
			}
			cc.net.ToCentral(i, m)
		}
		node, err := hybrid.NewSiteNode(cfg, i, exec.Sim(s), strategies[i], l, o)
		if err != nil {
			t.Fatal(err)
		}
		l.node = node
		siteLinks[i] = l
		cc.sites = append(cc.sites, node)
	}
	return cc
}

// replay feeds the trace the way Engine.SetTrace does — per site, each gap
// relative to that site's previous arrival — and runs to the horizon.
func (cc *codecCluster) replay(txns []*workload.Txn, gaps []float64, horizon float64) {
	byTxns := make([][]*workload.Txn, len(cc.sites))
	byGaps := make([][]float64, len(cc.sites))
	for i, txn := range txns {
		byTxns[txn.HomeSite] = append(byTxns[txn.HomeSite], txn)
		byGaps[txn.HomeSite] = append(byGaps[txn.HomeSite], gaps[i])
	}
	var next func(site, idx int)
	next = func(site, idx int) {
		if idx >= len(byTxns[site]) || cc.sim.Now()+byGaps[site][idx] > horizon {
			return
		}
		cc.sim.Schedule(byGaps[site][idx], func() {
			cc.sites[site].Admit(byTxns[site][idx])
			next(site, idx+1)
		})
	}
	for site := range cc.sites {
		next(site, 0)
	}
	cc.sim.RunUntil(horizon)
}

func codecConfig() hybrid.Config {
	cfg := hybrid.DefaultConfig()
	cfg.Sites = 4
	cfg.Lockspace = 2000 // 500 elements a partition: real conflicts
	cfg.PWrite = 0.6
	cfg.PLocal = 0.7
	cfg.ArrivalRatePerSite = 1.6
	cfg.CommDelay = 0.05
	cfg.RestartDelay = 0.0031
	cfg.Feedback = hybrid.FeedbackAllMessages
	cfg.Seed = 11
	cfg.Warmup = 10
	cfg.Duration = 240
	return cfg
}

func TestProtocolThroughCodecOnSimulatedTime(t *testing.T) {
	// Each case names the strategy the engine is given and the instances the
	// nodes are given; they must be the same decision streams. A stateless
	// value is shared. For routing.Static the engine forks one instance per
	// site from its seed tree — the third Split of rng.New(cfg.Seed), one
	// Uint64 per site in index order — and the nodes get forks seeded the
	// same way.
	shared := func(s routing.Strategy) func(hybrid.Config) []routing.Strategy {
		return func(cfg hybrid.Config) []routing.Strategy {
			out := make([]routing.Strategy, cfg.Sites)
			for i := range out {
				out[i] = s
			}
			return out
		}
	}
	static := routing.NewStatic(0.5, 7)
	staticForks := func(cfg hybrid.Config) []routing.Strategy {
		root := rng.New(cfg.Seed)
		root.Split()
		root.Split()
		seeds := root.Split()
		forks := make([]routing.Strategy, cfg.Sites)
		for i := range forks {
			forks[i] = static.ForSite(i, seeds.Uint64())
		}
		return forks
	}
	threshold := routing.QueueThreshold{Theta: 0.2}
	for _, tc := range []struct {
		name     string
		strategy routing.Strategy
		forNodes func(hybrid.Config) []routing.Strategy
		tune     func(*hybrid.Config)
		check    func(t *testing.T, p *partitionTally)
	}{
		{"queue-threshold", threshold, shared(threshold), nil, contended},
		{"static", static, staticForks, nil, contended},
		{"batched-partial-replication", threshold, shared(threshold), func(cfg *hybrid.Config) {
			cfg.UpdateBatchWindow = 0.35
			cfg.UpdateProcInstr = 20_000
			cfg.CentralHotFraction = 0.5
			cfg.ColdFetchDelay = 0.0137
			cfg.SkewTheta = 0.5
			cfg.DisksCentral = 6
		}, func(t *testing.T, p *partitionTally) {
			if p.total(obs.ColdFetch) == 0 {
				t.Error("no cold fetches under partial replication")
			}
			if updates, commits := p.total(obs.UpdateApplied), p.total(obs.TxnLocalCommit); updates == 0 || updates >= commits {
				t.Errorf("%d update messages for %d local commits: the batch window batched nothing", updates, commits)
			}
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := codecConfig()
			if tc.tune != nil {
				tc.tune(&cfg)
			}
			var buf bytes.Buffer
			if err := workload.Capture(&buf, cfg.WorkloadConfig(), 5, cfg.ArrivalRatePerSite, 1600); err != nil {
				t.Fatal(err)
			}
			txns, gaps, err := workload.ReadAll(&buf)
			if err != nil {
				t.Fatal(err)
			}

			want := newPartitionTally(cfg.Sites)
			e, err := hybrid.New(cfg, tc.strategy)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.SetTrace(txns, gaps); err != nil {
				t.Fatal(err)
			}
			e.Subscribe(want)
			res := e.Run()

			got := newPartitionTally(cfg.Sites)
			cc := newCodecCluster(t, cfg, tc.forNodes(cfg), got)
			cc.replay(txns, gaps, cfg.Warmup+cfg.Duration)

			if msgs := cc.net.MessagesSent(); msgs != res.MessagesSent {
				t.Errorf("codec run sent %d messages, the engine %d", msgs, res.MessagesSent)
			}
			central := cfg.Sites
			t.Logf("%d messages, %d local commits at site 0, %d central commits",
				res.MessagesSent, want.counts[0][obs.TxnLocalCommit], want.counts[central][obs.TxnCentralCommit])
			for i := range want.counts {
				if got.counts[i] != want.counts[i] {
					t.Errorf("partition %d: counts diverged from the engine\ncodec:  %v\nengine: %v", i, got.counts[i], want.counts[i])
				}
				// The view age is the one exempt row: a receiver-stamped
				// snapshot instant (now − D) and the sender's own clock differ
				// by an ulp. Its sample count is still exact.
				g, w := got.dists[i], want.dists[i]
				if g.moments[obs.ViewAge].Count() != w.moments[obs.ViewAge].Count() {
					t.Errorf("partition %d: %d view-age samples, the engine %d", i, g.moments[obs.ViewAge].Count(), w.moments[obs.ViewAge].Count())
				}
				g.moments[obs.ViewAge], w.moments[obs.ViewAge] = stats.Welford{}, stats.Welford{}
				if !reflect.DeepEqual(g, w) {
					t.Errorf("partition %d: distributions diverged from the engine\ncodec:  %+v\nengine: %+v", i, g.moments, w.moments)
				}
			}
			if want.counts[central][obs.TxnCentralCommit] == 0 || want.counts[0][obs.TxnLocalCommit] == 0 {
				t.Errorf("vacuous: %d central commits, %d local commits at site 0",
					want.counts[central][obs.TxnCentralCommit], want.counts[0][obs.TxnLocalCommit])
			}
			tc.check(t, want)
		})
	}
}

// contended requires the run to have exercised the protocol's hard corners:
// seizures, NACKs and invalidations.
func contended(t *testing.T, p *partitionTally) {
	for _, k := range []obs.Kind{obs.AbortLocalSeized, obs.AbortCentralNACK, obs.AbortCentralInval} {
		if p.total(k) == 0 {
			t.Errorf("no %s in the run: the configuration is too gentle to prove anything", k)
		}
	}
}
