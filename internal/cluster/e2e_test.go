package cluster

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"hybriddb/internal/hybrid"
	"hybriddb/internal/hybrid/obs"
	"hybriddb/internal/netx"
	"hybriddb/internal/obsx/metrics"
	"hybriddb/internal/routing"
	"hybriddb/internal/workload"
)

// smokeConfig is a small, fast operating point: millisecond-scale service
// times so emulated timers dominate scheduler jitter, light utilization so
// the run drains quickly.
func smokeConfig(sites int) hybrid.Config {
	return hybrid.Config{
		Sites:              sites,
		LocalMIPS:          1,
		CentralMIPS:        15,
		CommDelay:          0.01,
		ArrivalRatePerSite: 10,
		PLocal:             0.75,
		PWrite:             0.25,
		CallsPerTxn:        6,
		Lockspace:          16384,
		InstrPerCall:       2000,
		InstrOverhead:      10000,
		IOTimePerCall:      0.002,
		SetupIOTime:        0.003,
		RestartDelay:       0.01,
		Feedback:           hybrid.FeedbackAllMessages,
		Seed:               1,
		Warmup:             1,
		Duration:           1,
	}
}

// bootCluster starts 1 central + cfg.Sites sites on loopback and returns
// the site addresses plus a teardown. Teardown order matters: sites first
// (their uplinks die), central last.
func bootCluster(t *testing.T, cfg hybrid.Config, strategy routing.Strategy) (addrs []string, teardown func()) {
	addrs, _, _, teardown = bootClusterNodes(t, cfg, strategy)
	return addrs, teardown
}

// bootClusterNodes is bootCluster exposing the node handles, for tests
// that scrape per-node metrics or dump observability state. Every node is
// started with the given observers, each of which therefore runs on every
// node's loop at once.
func bootClusterNodes(t *testing.T, cfg hybrid.Config, strategy routing.Strategy, observers ...obs.Observer) (addrs []string, central *Central, sites []*Site, teardown func()) {
	t.Helper()
	central, err := StartCentral(cfg, "127.0.0.1:0", observers...)
	if err != nil {
		t.Fatalf("StartCentral: %v", err)
	}
	teardown = func() {
		for _, s := range sites {
			s.Close()
		}
		central.Close()
	}
	for i := 0; i < cfg.Sites; i++ {
		s, err := StartSite(cfg, i, central.Addr(), "127.0.0.1:0", strategy, observers...)
		if err != nil {
			teardown()
			t.Fatalf("StartSite(%d): %v", i, err)
		}
		sites = append(sites, s)
		addrs = append(addrs, s.Addr())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, s := range sites {
		if err := s.WaitReady(ctx); err != nil {
			teardown()
			t.Fatalf("site %d never reached central: %v", i, err)
		}
	}
	return addrs, central, sites, teardown
}

// assertConservation holds the scraped metrics of one central + N sites to
// the flow invariants the loop-consistent scrape hooks guarantee exactly:
// per site, generated == completed_local + replies_delivered + in_flight,
// and one response time per completion — the local route's count equals the
// local commits, the shipped and ship_b routes' the replies delivered; at
// central, ship_arrived == commits + in_system; cluster-wide, the sums
// balance. cmd/hybridd's process smoke holds its HTTP scrapes to the same.
func assertConservation(t *testing.T, centralSnap map[string]float64, siteSnaps []map[string]float64) {
	t.Helper()
	if got, want := centralSnap["central_ship_arrived_total"],
		centralSnap["central_commits_total"]+centralSnap["central_in_system"]; got != want {
		t.Errorf("central conservation broken: ship_arrived %v != commits %v + in_system %v",
			got, centralSnap["central_commits_total"], centralSnap["central_in_system"])
	}
	var genSum, doneSum float64
	for i, snap := range siteSnaps {
		gen := snap["site_generated_total"]
		done := snap["site_completed_local_total"] + snap["site_replies_delivered_total"] + snap["site_in_flight"]
		if gen != done {
			t.Errorf("site %d conservation broken: generated %v != completed_local %v + replies %v + in_flight %v",
				i, gen, snap["site_completed_local_total"], snap["site_replies_delivered_total"], snap["site_in_flight"])
		}
		if rt, local := snap[`site_rt_seconds_count{route="local"}`], snap["site_completed_local_total"]; rt != local {
			t.Errorf("site %d: %v local response times for %v local commits", i, rt, local)
		}
		if rt, replies := snap[`site_rt_seconds_count{route="shipped"}`]+snap[`site_rt_seconds_count{route="ship_b"}`],
			snap["site_replies_delivered_total"]; rt != replies {
			t.Errorf("site %d: %v shipped response times for %v replies delivered", i, rt, replies)
		}
		genSum += gen
		doneSum += done
	}
	if genSum != doneSum {
		t.Errorf("cluster-wide conservation broken: %v generated vs %v accounted", genSum, doneSum)
	}
	if genSum == 0 {
		t.Error("conservation trivially vacuous: no transactions generated")
	}
}

// detailCount is a detail observer safe on several loops at once: it counts
// the protocol-detail events it is handed.
type detailCount struct{ atomic.Int64 }

func (*detailCount) WantDetail() bool { return true }

func (d *detailCount) OnEvent(ev obs.Event) {
	if ev.Kind == obs.TraceDetail {
		d.Add(1)
	}
}

// TestClusterSmoke boots a 1 central + 2 site loopback cluster, drives a
// short paced run, and asserts nonzero commits on both paths, zero request
// errors, transaction conservation across every node's metrics, and a clean
// shutdown. This is the `make cluster-smoke` gate. It is also where tracing
// is shown to be the caller's switch: the nodes subscribe to no
// protocol-detail stream themselves, and a detail observer handed to them
// receives it.
func TestClusterSmoke(t *testing.T) {
	if _, ok := obs.Observer((*Site)(nil)).(obs.DetailObserver); ok {
		t.Error("Site wants the protocol-detail stream: a node started without observers would trace")
	}
	cfg := smokeConfig(2)
	cfg.Warmup = 0.3
	cfg.Duration = 1.2
	var details detailCount
	addrs, central, sites, teardown := bootClusterNodes(t, cfg, routing.QueueThreshold{Theta: 0}, &details)
	defer teardown()
	defer func() {
		if t.Failed() {
			central.Flight().Dump(&testWriter{t})
			for _, s := range sites {
				s.Flight().Dump(&testWriter{t})
			}
		}
	}()

	res, err := RunLoad(context.Background(), addrs, cfg, LoadOptions{
		Warmup:   cfg.Warmup,
		Duration: cfg.Duration,
		Ramp:     0.2,
		Threads:  2,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	t.Logf("smoke: %d completed (%d localA / %d shippedA / %d classB), meanRT %.1fms, %d errors",
		res.Completed, res.LocalA, res.ShippedA, res.ClassB, res.MeanRT*1e3, res.Errors)
	if res.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	if res.Errors != 0 {
		t.Fatalf("%d request errors on loopback", res.Errors)
	}
	if res.ClassB == 0 {
		t.Error("no class B transaction completed the ship->central->reply path")
	}
	if res.MeanRT <= 0 {
		t.Errorf("mean RT %.4f not positive", res.MeanRT)
	}

	// The loop-consistent scrape hooks make the flow invariants exact at any
	// instant, even with stragglers still in flight.
	siteSnaps := make([]map[string]float64, len(sites))
	for i, s := range sites {
		siteSnaps[i] = s.Metrics().Snapshot()
	}
	assertConservation(t, central.Metrics().Snapshot(), siteSnaps)
	if central.Metrics().Snapshot()["central_ship_arrived_total"] == 0 {
		t.Error("central saw no shipped transactions")
	}
	if details.Load() == 0 {
		t.Error("the detail observer the nodes were started with saw no protocol-detail event")
	}
}

// TestClusterColdFetches drives a skewed partial-replication configuration
// through the live cluster: with only a quarter of each partition centrally
// resident and every class A transaction shipped (θ=-1), central executions
// must pay cold fetches, and the counter must reach the scrape.
func TestClusterColdFetches(t *testing.T) {
	cfg := smokeConfig(2)
	cfg.Warmup = 0.2
	cfg.Duration = 1.0
	cfg.SkewTheta = 0.6
	cfg.CentralHotFraction = 0.25
	cfg.ColdFetchDelay = 0.002
	addrs, central, _, teardown := bootClusterNodes(t, cfg, routing.QueueThreshold{Theta: -1})
	defer teardown()

	res, err := RunLoad(context.Background(), addrs, cfg, LoadOptions{
		Warmup:   cfg.Warmup,
		Duration: cfg.Duration,
		Ramp:     0.1,
		Threads:  2,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Completed == 0 {
		t.Fatal("no transactions completed")
	}
	if got := central.Stats()[obs.ColdFetch]; got == 0 {
		t.Error("partial-replication run paid no cold fetches")
	}
	if got := central.Metrics().Snapshot()["central_cold_fetch_total"]; got == 0 {
		t.Error("central_cold_fetch_total did not reach the scrape")
	}
}

// TestClusterUpdateBatching drives the live cluster in both batched
// propagation modes: the sites stash committed updates and flush one Update
// frame (naming no transaction) per batch window, or per tick of their own
// epoch ticker — the simulator's propagate code, on wall-clock timers.
// Conservation must hold, and the uplinks must carry fewer Update frames
// than local commits that had something to propagate.
func TestClusterUpdateBatching(t *testing.T) {
	window, epoch := smokeConfig(2), smokeConfig(2)
	window.UpdateBatchWindow, epoch.EpochLength = 0.1, 0.2
	for name, cfg := range map[string]hybrid.Config{"window": window, "epoch": epoch} {
		t.Run(name, func(t *testing.T) {
			cfg.Warmup = 0.2
			cfg.Duration = 1.2
			cfg.ArrivalRatePerSite = 40
			cfg.PWrite = 0.5 // nearly every local commit has updates
			addrs, central, sites, teardown := bootClusterNodes(t, cfg, routing.QueueThreshold{Theta: 1})
			defer teardown()

			res, err := RunLoad(context.Background(), addrs, cfg, LoadOptions{
				Warmup: cfg.Warmup, Duration: cfg.Duration, Ramp: 0.1, Threads: 2,
			})
			if err != nil {
				t.Fatalf("RunLoad: %v", err)
			}
			if res.Errors != 0 || res.LocalA == 0 {
				t.Fatalf("%d errors, %d local class A completions", res.Errors, res.LocalA)
			}
			var commits, updates float64
			siteSnaps := make([]map[string]float64, len(sites))
			for i, s := range sites {
				siteSnaps[i] = s.Metrics().Snapshot()
				commits += siteSnaps[i]["site_completed_local_total"]
				updates += siteSnaps[i][`wire_msgs_out_total{type="update"}`]
			}
			centralSnap := central.Metrics().Snapshot()
			assertConservation(t, centralSnap, siteSnaps)
			t.Logf("%v local commits, %v update frames, %v applied at central", commits, updates, centralSnap["central_updates_applied_total"])
			if updates == 0 || updates >= commits/2 {
				t.Errorf("%v update frames for %v local commits: nothing was batched", updates, commits)
			}
		})
	}
}

// testWriter adapts t.Logf for flight-recorder dumps on test failure.
type testWriter struct{ t *testing.T }

func (w *testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// TestClusterShipAndLocalPaths pins the routing extremes: θ=+1 never ships
// class A, θ=-1 always ships (utilization estimates live in [0,1)).
func TestClusterShipAndLocalPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		name  string
		theta float64
		check func(t *testing.T, res *LoadResult)
	}{
		{"all-local", 1.0, func(t *testing.T, res *LoadResult) {
			if res.ShippedA != 0 {
				t.Errorf("θ=+1 shipped %d class A transactions", res.ShippedA)
			}
			if res.LocalA == 0 {
				t.Error("θ=+1 completed no local class A transactions")
			}
		}},
		{"all-ship", -1.0, func(t *testing.T, res *LoadResult) {
			if res.LocalA != 0 {
				t.Errorf("θ=-1 ran %d class A transactions locally", res.LocalA)
			}
			if res.ShippedA == 0 {
				t.Error("θ=-1 completed no shipped class A transactions")
			}
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := smokeConfig(2)
			addrs, teardown := bootCluster(t, cfg, routing.QueueThreshold{Theta: tc.theta})
			defer teardown()
			res, err := RunLoad(context.Background(), addrs, cfg, LoadOptions{
				Warmup: 0.2, Duration: 1.0, Threads: 2,
			})
			if err != nil {
				t.Fatalf("RunLoad: %v", err)
			}
			if res.Completed == 0 || res.Errors != 0 {
				t.Fatalf("completed %d, errors %d", res.Completed, res.Errors)
			}
			tc.check(t, res)
		})
	}
}

// TestClusterCancelledLoadReturnsPartial exercises the load generator's
// context path: cancelling mid-run returns what was measured.
func TestClusterCancelledLoadReturnsPartial(t *testing.T) {
	cfg := smokeConfig(1)
	addrs, teardown := bootCluster(t, cfg, routing.AlwaysLocal{})
	defer teardown()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(600 * time.Millisecond)
		cancel()
	}()
	res, err := RunLoad(ctx, addrs, cfg, LoadOptions{
		Warmup: 0.1, Duration: 30, Threads: 1, // would run half a minute uncancelled
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Elapsed > 10 {
		t.Fatalf("cancel took %.1fs to take effect", res.Elapsed)
	}
}

// TestClusterConfigValidation pins the live engine's config gate.
func TestClusterConfigValidation(t *testing.T) {
	bad := smokeConfig(2)
	bad.Feedback = hybrid.FeedbackIdeal
	if _, err := StartCentral(bad, "127.0.0.1:0"); err == nil {
		t.Error("ideal feedback accepted by StartCentral")
	}
	// Both batched propagation modes are site-local and shared with the
	// simulator: accepted.
	cfg, epochs := smokeConfig(2), smokeConfig(2)
	cfg.UpdateBatchWindow, epochs.EpochLength = 0.05, 0.5
	for _, batched := range []hybrid.Config{cfg, epochs} {
		c, err := StartCentral(batched, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("batch window %v / epoch length %v rejected by StartCentral: %v", batched.UpdateBatchWindow, batched.EpochLength, err)
		}
		c.Close()
	}
	if _, err := StartSite(cfg, 5, "127.0.0.1:1", "127.0.0.1:0", nil); err == nil {
		t.Error("out-of-range site index accepted")
	}
}

// TestLoadOptionsValidation pins the load generator's option gate.
func TestLoadOptionsValidation(t *testing.T) {
	cfg := smokeConfig(1)
	ctx := context.Background()
	if _, err := RunLoad(ctx, nil, cfg, LoadOptions{Duration: 1}); err == nil {
		t.Error("no addresses accepted")
	}
	if _, err := RunLoad(ctx, []string{"x"}, cfg, LoadOptions{}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := RunLoad(ctx, []string{"x"}, cfg, LoadOptions{Duration: 1, Pacing: "bursty"}); err == nil {
		t.Error("unknown pacing accepted")
	}
	if _, err := RunLoad(ctx, []string{"a", "b"}, cfg, LoadOptions{Duration: 1}); err == nil {
		t.Error("address/site count mismatch accepted")
	}
}

// rawPeer is a bare connection to a node, for frames no well-behaved peer
// sends. closed is closed when the read loop ends — the node dropped us.
type rawPeer struct {
	*netx.Conn
	closed chan struct{}
}

func dialRaw(t *testing.T, addr string) rawPeer {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p := rawPeer{netx.NewConn(nc, netx.Options{}), make(chan struct{})}
	go func() {
		defer close(p.closed)
		p.Serve(func(*netx.Conn, netx.Frame) {})
	}()
	t.Cleanup(func() { p.Close() })
	return p
}

// awaitMetric polls a node's registry until the named sample reaches min,
// for five seconds at most; the caller's assertions report a miss.
func awaitMetric(reg *metrics.Registry, name string, min float64) {
	for deadline := time.Now().Add(5 * time.Second); reg.Snapshot()[name] < min && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
}

func (p rawPeer) wantDropped(t *testing.T, why string) {
	t.Helper()
	select {
	case <-p.closed:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: the node kept the connection open", why)
	}
}

// TestClusterSurvivesMalformedInputs sends each node the transaction inputs
// that used to take its loop goroutine down or corrupt its tables — a spec
// with the wrong number of elements (the lifecycle indexes Elements by call
// number), one homed elsewhere, and an id already in flight — on Submit and
// on Ship, where "homed elsewhere" is any site but the one registered on the
// uplink the Ship arrived on. Every one must be refused, counted under
// wire_errors_total, cost its sender the connection, and leave the node
// serving: a valid submission afterwards completes through both tiers and
// conservation still holds.
func TestClusterSurvivesMalformedInputs(t *testing.T) {
	cfg := smokeConfig(2)
	addrs, central, sites, teardown := bootClusterNodes(t, cfg, routing.QueueThreshold{Theta: -1}) // ship everything
	defer teardown()
	gen := workload.NewGenerator(cfg.WorkloadConfig(), 99)
	spec := func(id int64, mutate func(*workload.Txn)) []byte {
		txn := gen.Next(0)
		for txn.Class != workload.ClassA { // site 0's data only: site 1 leaves mid-test
			txn = gen.Next(0)
		}
		txn.ID = id
		if mutate != nil {
			mutate(txn)
		}
		return netx.AppendTxn(nil, txn)
	}
	short := func(txn *workload.Txn) { txn.Elements, txn.Modes = txn.Elements[:2], txn.Modes[:2] }
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	for why, payload := range map[string][]byte{
		"submit with 2 of 6 elements":   spec(1001, short),
		"submit homed at another site":  spec(1002, func(txn *workload.Txn) { txn.HomeSite = 1 }),
		"submit homed outside the star": spec(1003, func(txn *workload.Txn) { txn.HomeSite = 7 }),
	} {
		p := dialRaw(t, addrs[0])
		if _, err := p.Call(ctx, netx.MsgSubmit, payload); err == nil {
			t.Errorf("%s was answered", why)
		}
		p.wantDropped(t, why)
	}
	// Two submissions of one id, back to back: the first is admitted, the
	// second must not overwrite it.
	p := dialRaw(t, addrs[0])
	for i := 0; i < 2; i++ {
		if err := p.Send(netx.MsgSubmit, uint64(i+1), spec(1004, nil)); err != nil {
			t.Fatal(err)
		}
	}
	p.wantDropped(t, "duplicate submit")

	// The same at central, from a peer posing as site 1 (the real one steps
	// aside; it plays no further part). The admitted first copy of 2002
	// completes, and its Reply dies with the peer's connection.
	p = dialRaw(t, central.Addr())
	if err := p.Send(netx.MsgShip, 0, append(spec(2001, short), 1)); err != nil {
		t.Fatal(err)
	}
	p.wantDropped(t, "ship with 2 of 6 elements")
	// Site 1 is ready once it has sent its Hello; let central have answered
	// it too before the site leaves, or a late registration would evict the
	// peer that takes its place.
	awaitMetric(central.Metrics(), `wire_msgs_out_total{type="hello-ack"}`, 2)
	sites[1].Close()
	asSite1 := func() rawPeer {
		p := dialRaw(t, central.Addr())
		if err := p.Send(netx.MsgHello, 0, netx.AppendHello(nil, netx.Hello{Site: 1})); err != nil {
			t.Fatal(err)
		}
		return p
	}
	homedAt := func(site int) func(*workload.Txn) { return func(txn *workload.Txn) { txn.HomeSite = site } }
	p = asSite1()
	for i := 0; i < 2; i++ {
		if err := p.Send(netx.MsgShip, 0, append(spec(2002, homedAt(1)), 1)); err != nil {
			t.Fatal(err)
		}
	}
	p.wantDropped(t, "duplicate ship")
	p = asSite1()
	if err := p.Send(netx.MsgShip, 0, append(spec(2003, homedAt(0)), 1)); err != nil {
		t.Fatal(err)
	}
	p.wantDropped(t, "ship homed at a site other than its uplink's")

	p = dialRaw(t, addrs[0])
	f, err := p.Call(ctx, netx.MsgSubmit, spec(3001, nil))
	if err != nil {
		t.Fatalf("valid submission after the malformed ones: %v", err)
	}
	if res, err := netx.DecodeResult(f.Payload); err != nil || res.Txn != 3001 || !res.Shipped {
		t.Errorf("valid submission answered %+v, %v; want txn 3001 shipped", res, err)
	}

	// 2002 may still be executing; wait for the three admitted ships to have
	// committed before reading the books.
	awaitMetric(central.Metrics(), "central_commits_total", 3)
	siteSnaps := []map[string]float64{sites[0].Metrics().Snapshot(), sites[1].Metrics().Snapshot()}
	centralSnap := central.Metrics().Snapshot()
	// No Reply strayed: 2003, homed at site 0, never ran.
	for name, want := range map[string]float64{`wire_errors_total{type="bad-submit"}`: 4, `wire_errors_total{type="stray-reply"}`: 0} {
		if got := siteSnaps[0][name]; got != want {
			t.Errorf("site 0 %s = %v, want %v", name, got, want)
		}
	}
	if got := centralSnap[`wire_errors_total{type="bad-ship"}`]; got != 3 {
		t.Errorf(`central wire_errors_total{type="bad-ship"} = %v, want 3`, got)
	}
	if got := centralSnap["central_ship_arrived_total"]; got != 3 { // 1004, 2002, 3001
		t.Errorf("central admitted %v ships, want 3", got)
	}
	// 1004 completed with nobody left to tell; the books still balance.
	assertConservation(t, centralSnap, siteSnaps)
}
