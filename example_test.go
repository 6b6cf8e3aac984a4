package hybriddb_test

import (
	"fmt"
	"strings"

	"hybriddb"
)

// Example compares no load sharing against the paper's best dynamic
// strategy on the §4.1 system at 25 tps. Without sharing the local sites run
// at 0.84 utilization and the mean response time is 3.38 s; shipping 42.6%
// of class A transactions to the central complex brings it to 1.00 s.
func Example() {
	cfg := hybriddb.DefaultConfig()
	cfg.ArrivalRatePerSite = 2.5 // 25 tps over 10 sites
	cfg.Warmup, cfg.Duration = 100, 400

	baseline, err := hybriddb.Run(cfg, hybriddb.None())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	best, err := hybriddb.Run(cfg, hybriddb.Best(cfg))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, r := range []hybriddb.Result{baseline, best} {
		fmt.Printf("%-15s mean RT %.3f s  p95 %6.3f s  shipped %4.1f%%  local util %.2f  central util %.2f\n",
			r.Strategy, r.MeanRT, r.P95RT, 100*r.ShipFraction, r.UtilLocalMean, r.UtilCentral)
	}
	fmt.Printf("no sharing %.2fs -> dynamic %.2fs\n", baseline.MeanRT, best.MeanRT)
	// Output:
	// none            mean RT 3.384 s  p95 12.231 s  shipped  0.0%  local util 0.84  central util 0.19
	// min-average/nis mean RT 1.001 s  p95  1.195 s  shipped 42.6%  local util 0.48  central util 0.42
	// no sharing 3.38s -> dynamic 1.00s
}

// ExampleOptimalShipFraction finds the optimal static policy analytically:
// at low load nothing should be shipped.
func ExampleOptimalShipFraction() {
	cfg := hybriddb.DefaultConfig()
	cfg.ArrivalRatePerSite = 0.3 // 3 tps total: local sites are nearly idle
	p, _, err := hybriddb.OptimalShipFraction(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("optimal p_ship below 0.05: %v\n", p < 0.05)
	// Output:
	// optimal p_ship below 0.05: true
}

// ExampleAnalyze solves the §3.1 analytical model without simulating.
func ExampleAnalyze() {
	cfg := hybriddb.DefaultConfig()
	cfg.ArrivalRatePerSite = 1.0
	m, err := hybriddb.Analyze(cfg, 0.3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("converged: %v, saturated: %v\n", m.Converged, m.Saturated)
	fmt.Printf("local faster than shipped at low load: %v\n", m.RLocal < m.RCentral)
	// Output:
	// converged: true, saturated: false
	// local faster than shipped at low load: true
}

// ExampleCompareArchitectures reproduces the introduction's three-way
// architecture comparison at full locality and a long-haul delay, where the
// distributed system's avoidance of communication wins.
func ExampleCompareArchitectures() {
	cfg := hybriddb.DefaultConfig()
	cfg.PLocal = 1.0
	cfg.CommDelay = 0.5
	cfg.ArrivalRatePerSite = 0.5
	cfg.Warmup, cfg.Duration = 50, 200

	cmp, err := hybriddb.CompareArchitectures(cfg, hybriddb.DefaultLockTimeout)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("distributed beats centralized at full locality: %v\n",
		cmp.Distributed.MeanRT < cmp.Centralized.MeanRT)
	// Output:
	// distributed beats centralized at full locality: true
}

// ExampleLocalitySweep is the §1 motivating comparison across locality of
// reference at 10 tps and a 0.5 s delay, in mean response time (s). The
// centralized system is faster than the distributed one until remote calls
// per transaction reach zero (p_local 1.00). The hybrid is never the
// fastest of the three here: it runs 0.11–0.40 s behind the better pure
// architecture at every point, while the worse one is up to 5.12 s behind.
func ExampleLocalitySweep() {
	cfg := hybriddb.DefaultConfig()
	cfg.ArrivalRatePerSite = 1.0
	cfg.CommDelay = 0.5 // long-haul links make the architectural choice stark
	cfg.Warmup, cfg.Duration = 100, 400

	points, err := hybriddb.LocalitySweep(cfg, []float64{0.5, 0.75, 0.9, 1.0}, hybriddb.DefaultLockTimeout)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("p_local  remote calls/txn  centralized  distributed  hybrid")
	for _, p := range points {
		fmt.Printf("%7.2f  %16.2f  %11.2f  %11.2f  %6.2f\n", p.PLocal, p.Distributed.RemoteCallsPerTxn,
			p.Centralized.MeanRT, p.Distributed.MeanRT, p.Hybrid.MeanRT)
	}
	// Output:
	// p_local  remote calls/txn  centralized  distributed  hybrid
	//    0.50              4.62         1.32         6.44    1.72
	//    0.75              2.32         1.32         3.79    1.52
	//    0.90              0.93         1.32         2.16    1.43
	//    1.00              0.00         1.32         1.07    1.35
}

// Example_banking is branch banking with a payday surge (Config.SiteRates):
// nine regions at a calm 1.2 tps while region 0 surges to 4 tps, beyond its
// local processor's capacity. The static optimizer only sees the average
// rate. Both dynamic policies cut the mean response time from the static
// policy's 1.16 s to 0.97 s. The best dynamic policy ships about as much as
// static (44% against 46%) but leaves the hottest branch at 0.45
// utilization instead of 0.72.
func Example_banking() {
	cfg := hybriddb.DefaultConfig()
	cfg.Warmup, cfg.Duration = 50, 200
	cfg.PWrite = 0.35 // debits and credits update balances
	cfg.SiteRates = make([]float64, cfg.Sites)
	var total float64
	for i := range cfg.SiteRates {
		cfg.SiteRates[i] = 1.2
		if i == 0 {
			cfg.SiteRates[i] = 4.0
		}
		total += cfg.SiteRates[i]
	}
	cfg.ArrivalRatePerSite = total / float64(cfg.Sites)

	static, _, err := hybriddb.StaticOptimal(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("policy           mean RT  hottest util  mean util  shipped")
	for _, s := range []hybriddb.Strategy{hybriddb.None(), static, hybriddb.QueueLengthHeuristic(), hybriddb.Best(cfg)} {
		r, err := hybriddb.Run(cfg, s)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%-15s  %5.2f s  %12.2f  %9.2f  %6.0f%%\n",
			r.Strategy, r.MeanRT, r.UtilLocalMax, r.UtilLocalMean, 100*r.ShipFraction)
	}
	// Output:
	// policy           mean RT  hottest util  mean util  shipped
	// none              5.41 s          1.00       0.47       0%
	// static(0.455)     1.16 s          0.72       0.27      46%
	// queue-length      0.97 s          0.61       0.34      32%
	// min-average/nis   0.97 s          0.45       0.28      44%
}

// Example_insurance contrasts read-heavy claims handling (10% writes) with
// write-heavy renewals (55%) at the same 25 tps over a contended
// 8192-element policy base. The write mix multiplies the cross-site aborts
// (local seizures, NACKs, invalidations) about fivefold under both
// policies. The best dynamic policy ships about 42% instead of about 65%
// and answers faster in both regimes, although it takes more cross-site
// aborts than the static optimum.
func Example_insurance() {
	fmt.Println("PWrite  policy           mean RT  cross-site aborts  shipped")
	for _, pWrite := range []float64{0.10, 0.55} {
		cfg := hybriddb.DefaultConfig()
		cfg.ArrivalRatePerSite = 2.5
		cfg.PWrite = pWrite
		cfg.Lockspace = 8_192
		cfg.Warmup, cfg.Duration = 50, 200

		static, _, err := hybriddb.StaticOptimal(cfg)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		for _, s := range []hybriddb.Strategy{static, hybriddb.Best(cfg)} {
			r, err := hybriddb.Run(cfg, s)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			cross := r.AbortsLocalSeized + r.AbortsCentralNACK + r.AbortsCentralInval
			fmt.Printf("%6.2f  %-15s  %5.2f s  %17d  %6.0f%%\n",
				pWrite, r.Strategy, r.MeanRT, cross, 100*r.ShipFraction)
		}
	}
	// Output:
	// PWrite  policy           mean RT  cross-site aborts  shipped
	//   0.10  static(0.640)     1.09 s                 34      64%
	//   0.10  min-average/nis   1.01 s                 44      43%
	//   0.55  static(0.665)     1.13 s                172      67%
	//   0.55  min-average/nis   1.04 s                226      42%
}

// Example_diurnal is follow-the-sun load (Config.RateSchedules): each site
// cycles through a 400 s day of quiet night, ramp, peak and tail, shifted by
// 40 s per site so the regional peaks are staggered. It prints each policy's
// mean response time per 100 s bucket of the window. The best dynamic
// policy is the fastest in every bucket (0.98–0.99 s). Re-optimizing the
// ship probability every 60 s does not beat the static optimum tuned to the
// mean rate (1.13 s against 1.11 s).
func Example_diurnal() {
	cfg := hybriddb.DefaultConfig()
	cfg.Warmup, cfg.Duration = 100, 400
	cfg.SeriesBucket = 100
	day := hybriddb.RateSchedule{
		{Duration: 120, Rate: 0.5},
		{Duration: 80, Rate: 2.0},
		{Duration: 100, Rate: 3.2},
		{Duration: 100, Rate: 1.2},
	}
	cfg.RateSchedules = make([]hybriddb.RateSchedule, cfg.Sites)
	for i := range cfg.RateSchedules {
		cfg.RateSchedules[i] = day.Shift(float64(i) * 40)
	}
	cfg.ArrivalRatePerSite = day.MeanRate() // all the static optimizer sees

	static, _, err := hybriddb.StaticOptimal(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	adaptive, err := hybriddb.AdaptiveStatic(cfg, 60, 7)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, s := range []hybriddb.Strategy{static, adaptive, hybriddb.Best(cfg)} {
		r, err := hybriddb.Run(cfg, s)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		series := make([]string, len(r.RTSeries))
		for i, b := range r.RTSeries {
			series[i] = fmt.Sprintf("%.2f", b.MeanRT)
		}
		fmt.Printf("%-15s  mean RT %.2f s  shipped %2.0f%%  by bucket %s\n",
			r.Strategy, r.MeanRT, 100*r.ShipFraction, strings.Join(series, " "))
	}
	// Output:
	// static(0.505)    mean RT 1.11 s  shipped 51%  by bucket 1.12 1.11 1.10 1.12
	// adaptive-static  mean RT 1.13 s  shipped 46%  by bucket 1.13 1.14 1.12 1.13
	// min-average/nis  mean RT 0.99 s  shipped 47%  by bucket 0.98 0.99 0.99 0.99
}

// Example_epochs runs per-commit asynchronous update propagation (epoch 0)
// against epoch-batched propagation (Config.EpochLength), with 60k
// instructions of central processing per update message — the cost
// batching amortises. Epochs up to 4 s trim the messages by 5% and the
// central utilization from 0.301 to 0.289, while NACKs rise from 7 to 53.
// At 16 s the NACKs reach 974, and the message count, central utilization
// and mean response time all end above per-commit propagation's.
func Example_epochs() {
	cfg := hybriddb.DefaultConfig()
	cfg.Sites = 8
	cfg.ArrivalRatePerSite = 2.0
	cfg.Warmup, cfg.Duration = 50, 200
	cfg.UpdateProcInstr = 60_000

	fmt.Println("epoch  mean RT  messages  central util  invalidated  NACK")
	for _, epoch := range []float64{0, 0.25, 1, 4, 16} {
		cfg.EpochLength = epoch
		r, err := hybriddb.Run(cfg, hybriddb.Best(cfg))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%5.2f  %5.3f s  %8d  %12.3f  %11d  %4d\n", epoch, r.MeanRT, r.MessagesSent,
			r.UtilCentral, r.AbortsCentralInval, r.AbortsCentralNACK)
	}
	// Output:
	// epoch  mean RT  messages  central util  invalidated  NACK
	//  0.00  0.982 s     29039         0.301            1     7
	//  0.25  0.983 s     28942         0.300            1     9
	//  1.00  0.985 s     28727         0.299            3    17
	//  4.00  0.989 s     27590         0.289            3    53
	// 16.00  1.124 s     32694         0.358           14   974
}
