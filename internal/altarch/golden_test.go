package altarch

import (
	"fmt"
	"testing"

	"hybriddb/internal/hybrid"
)

// goldenPoint pins both architectures' Results at one configuration. A
// Result is rendered by hexResult, floats in hex (strconv 'x'), so the
// comparison is bit-exact: a refactor that moves any event, RNG draw or
// accumulation fails here even if the run still looks plausible.
type goldenPoint struct {
	name                           string
	warmup, duration, rate, pLocal float64
	delay                          float64 // CommDelay; 0 keeps the default
	// contended is TestDistributedTimeoutBreaksCrossSiteDeadlock's point:
	// Lockspace 500, PWrite 0.7 and a 2 s lock timeout.
	contended  bool
	cent, dist string
}

func (g goldenPoint) config() (hybrid.Config, float64) {
	cfg := hybrid.DefaultConfig()
	cfg.Warmup, cfg.Duration = g.warmup, g.duration
	cfg.ArrivalRatePerSite, cfg.PLocal = g.rate, g.pLocal
	if g.delay > 0 {
		cfg.CommDelay = g.delay
	}
	if g.contended {
		cfg.Lockspace, cfg.PWrite = 500, 0.7
		return cfg, 2.0
	}
	return cfg, DefaultLockTimeout
}

func hexResult(r Result) string {
	return fmt.Sprintf("%s gen=%d done=%d aborts=%d rt=%x p95=%x tput=%x util=%x/%x calls=%x",
		r.Architecture, r.Generated, r.Completed, r.Aborts, r.MeanRT, r.P95RT,
		r.Throughput, r.UtilCentral, r.UtilLocalMean, r.RemoteCallsPerTxn)
}

// goldenPoints covers every configuration this package's tests run, the four
// `figures -fig arch` points (full length and -quick), BenchmarkArchitectures'
// point and the four points of examples/architectures (D = 0.5 s).
var goldenPoints = []goldenPoint{
	{name: "low-load", warmup: 30, duration: 120, rate: 0.2, pLocal: 0.75,
		cent: "centralized gen=300 done=297 aborts=0 rt=0x1.6eb4a06edcc8p-01 p95=0x1.970a3d70a3d71p-01 tput=0x1.0333333333333p+01 util=0x1.f141205bc035ap-05/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=300 done=294 aborts=0 rt=0x1.ef8c7954ba16dp+00 p95=0x1.58bf258bf258cp+02 tput=0x1.0444444444444p+01 util=0x0p+00/0x1.75b29d8b5d95ep-04 calls=0x1.379b47582192ep+01"},
	{name: "20tps", warmup: 30, duration: 120, rate: 2.0, pLocal: 0.75,
		cent: "centralized gen=3022 done=3001 aborts=0 rt=0x1.80d5164243445p-01 p95=0x1.9d9b1df623a67p-01 tput=0x1.4422222222222p+04 util=0x1.376c09756327bp-01/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=3022 done=2841 aborts=96 rt=0x1.0cb4ff9c73d43p+03 p95=0x1.b05c28f5c28f4p+04 tput=0x1.3eccccccccccdp+04 util=0x0p+00/0x1.d6685f81c1e73p-01 calls=0x1.286b1173bd9e2p+01"},
	{name: "saturated-40tps", warmup: 30, duration: 120, rate: 4.0, pLocal: 0.75,
		cent: "centralized gen=5896 done=3677 aborts=5 rt=0x1.02aaf02ecf81fp+05 p95=0x1.d9e147ae147adp+05 tput=0x1.8c66666666666p+04 util=0x1p+00/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=5896 done=794 aborts=1915 rt=0x1.1ecbdb419105fp+06 p95=0x1.ep+05 tput=0x1.3f77777777777p+02 util=0x0p+00/0x1p+00 calls=0x1.18334914f10abp+03"},
	{name: "all-local", warmup: 30, duration: 120, rate: 0.1, pLocal: 1.0,
		cent: "centralized gen=138 done=137 aborts=0 rt=0x1.6e49403c63e85p-01 p95=0x1.970a3d70a3d71p-01 tput=0x1.ddddddddddddep-01 util=0x1.c8057619f13d5p-06/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=138 done=137 aborts=0 rt=0x1.7ce10813744e2p-01 p95=0x1.9db22d0e5604p-01 tput=0x1.ddddddddddddep-01 util=0x0p+00/0x1.56bc27f142745p-05 calls=0x0p+00"},
	{name: "rate0.5/p0.75", warmup: 30, duration: 120, rate: 0.5, pLocal: 0.75,
		cent: "centralized gen=772 done=767 aborts=0 rt=0x1.7042b97bf91a3p-01 p95=0x1.971df139299bcp-01 tput=0x1.519999999999ap+02 util=0x1.449ba5e35410ap-03/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=772 done=756 aborts=0 rt=0x1.e6c506f8a6c55p+00 p95=0x1.5bfb72ea61d95p+02 tput=0x1.4dddddddddddep+02 util=0x0p+00/0x1.e560493f6db72p-03 calls=0x1.19f7d232b5926p+01"},
	{name: "rate0.5/p1.00", warmup: 30, duration: 120, rate: 0.5, pLocal: 1.0,
		cent: "centralized gen=772 done=767 aborts=0 rt=0x1.7033d4e0f5023p-01 p95=0x1.971df139299bcp-01 tput=0x1.519999999999ap+02 util=0x1.449ba5e35410ap-03/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=772 done=763 aborts=0 rt=0x1.c0a91cb6a85a8p-01 p95=0x1.6e56041893748p+00 tput=0x1.4f77777777777p+02 util=0x0p+00/0x1.e64751b5fd7f2p-03 calls=0x0p+00"},
	{name: "rate0.5/p0.50", warmup: 30, duration: 120, rate: 0.5, pLocal: 0.5,
		cent: "centralized gen=772 done=767 aborts=0 rt=0x1.706d0f201b0a6p-01 p95=0x1.974588d36e7eap-01 tput=0x1.519999999999ap+02 util=0x1.449ba5e35410ap-03/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=772 done=752 aborts=0 rt=0x1.7e569e542212fp+01 p95=0x1.623a83a83a83bp+02 tput=0x1.4d55555555555p+02 util=0x0p+00/0x1.e53835709dc1bp-03 calls=0x1.2161e4f765fd9p+02"},
	{name: "rate0.5/p1.00/D0.5", warmup: 30, duration: 120, rate: 0.5, pLocal: 1.0, delay: 0.5,
		cent: "centralized gen=772 done=761 aborts=0 rt=0x1.51b0de9b36256p+00 p95=0x1.6528a6528a653p+00 tput=0x1.4eeeeeeeeeeefp+02 util=0x1.43f59f9b83062p-03/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=772 done=763 aborts=0 rt=0x1.c0a91cb6a85a8p-01 p95=0x1.6e56041893748p+00 tput=0x1.4f77777777777p+02 util=0x0p+00/0x1.e64751b5fd7f2p-03 calls=0x0p+00"},
	{name: "rate1/p0.50", warmup: 30, duration: 120, rate: 1.0, pLocal: 0.5,
		cent: "centralized gen=1524 done=1517 aborts=0 rt=0x1.72b9af888f23dp-01 p95=0x1.973d3048ab36dp-01 tput=0x1.4733333333333p+03 util=0x1.39ce075f6fc2p-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=1524 done=1496 aborts=0 rt=0x1.982bf6d4ff6c7p+01 p95=0x1.74bcdf0123457p+02 tput=0x1.4c88888888889p+03 util=0x0p+00/0x1.da956d1ef6536p-02 calls=0x1.177466a577467p+02"},
	{name: "rate1/p1.00", warmup: 30, duration: 120, rate: 1.0, pLocal: 1.0,
		cent: "centralized gen=1524 done=1517 aborts=0 rt=0x1.7290cf4aa8da5p-01 p95=0x1.9714657f794bp-01 tput=0x1.4733333333333p+03 util=0x1.39ce075f6fc2p-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=1524 done=1516 aborts=0 rt=0x1.1b8e00eb4dca3p+00 p95=0x1.1fcfcfcfcfcfdp+01 tput=0x1.4955555555555p+03 util=0x0p+00/0x1.d828d1d441cbdp-02 calls=0x0p+00"},
	{name: "cross-site-deadlock", warmup: 20, duration: 120, rate: 0.4, pLocal: 0.3, contended: true,
		cent: "centralized gen=544 done=543 aborts=0 rt=0x1.74d4b3f98ec7cp-01 p95=0x1.a19999999999ap-01 tput=0x1.f555555555555p+01 util=0x1.e147ae147a42fp-04/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=544 done=164 aborts=7088 rt=0x1.4e5c21438b77ep+04 p95=0x1.a151eb851eb85p+05 tput=0x1.0eeeeeeeeeeefp+00 util=0x0p+00/0x1.142b6955ea03ep-01 calls=0x1.480810204081p+06"},
	{name: "sweep60/p0.50", warmup: 15, duration: 60, rate: 0.5, pLocal: 0.5,
		cent: "centralized gen=359 done=355 aborts=0 rt=0x1.70976405c8237p-01 p95=0x1.9761edd3ddf68p-01 tput=0x1.3111111111111p+02 util=0x1.2411c3f21c77ep-03/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=359 done=344 aborts=0 rt=0x1.8bd7df25a14efp+01 p95=0x1.5fb101767dce4p+02 tput=0x1.3222222222222p+02 util=0x0p+00/0x1.b85115caad28bp-03 calls=0x1.2ed44aed44aedp+02"},
	{name: "sweep60/p0.75", warmup: 15, duration: 60, rate: 0.5, pLocal: 0.75,
		cent: "centralized gen=359 done=355 aborts=0 rt=0x1.7039b13727188p-01 p95=0x1.970a3d70a3d71p-01 tput=0x1.3111111111111p+02 util=0x1.2411c3f21c77ep-03/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=359 done=349 aborts=0 rt=0x1.fed014571cf54p+00 p95=0x1.5a47ae147ae14p+02 tput=0x1.2dddddddddddep+02 util=0x0p+00/0x1.b70587afeafcdp-03 calls=0x1.3d0f60caa1048p+01"},
	{name: "sweep60/p0.90", warmup: 15, duration: 60, rate: 0.5, pLocal: 0.9,
		cent: "centralized gen=359 done=355 aborts=0 rt=0x1.7039b13727188p-01 p95=0x1.970a3d70a3d71p-01 tput=0x1.3111111111111p+02 util=0x1.2411c3f21c77ep-03/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=359 done=351 aborts=0 rt=0x1.3bfd9ff8c02f4p+00 p95=0x1.440da740da74p+02 tput=0x1.2cccccccccccdp+02 util=0x0p+00/0x1.b6ae963e0989p-03 calls=0x1.d29c244fe2f35p-01"},
	{name: "sweep60/p1.00", warmup: 15, duration: 60, rate: 0.5, pLocal: 1.0,
		cent: "centralized gen=359 done=355 aborts=0 rt=0x1.7039b13727188p-01 p95=0x1.970a3d70a3d71p-01 tput=0x1.3111111111111p+02 util=0x1.2411c3f21c77ep-03/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=359 done=354 aborts=0 rt=0x1.b40157bc609e8p-01 p95=0x1.4b33333333334p+00 tput=0x1.3p+02 util=0x0p+00/0x1.b6c8cd20f4a56p-03 calls=0x0p+00"},
	{name: "sweep10-60/p0.75", warmup: 10, duration: 60, rate: 0.5, pLocal: 0.75,
		cent: "centralized gen=335 done=335 aborts=0 rt=0x1.70642ba9b3718p-01 p95=0x1.970a3d70a3d71p-01 tput=0x1.399999999999ap+02 util=0x1.2b8ddbaea09dfp-03/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=335 done=330 aborts=0 rt=0x1.f477b4c369d79p+00 p95=0x1.5aaaaaaaaaaabp+02 tput=0x1.3555555555555p+02 util=0x0p+00/0x1.c06b0fe410fc3p-03 calls=0x1.316f3a4316f3ap+01"},
	{name: "sweep10-60/p1.00", warmup: 10, duration: 60, rate: 0.5, pLocal: 1.0,
		cent: "centralized gen=335 done=335 aborts=0 rt=0x1.70642ba9b3718p-01 p95=0x1.970a3d70a3d71p-01 tput=0x1.399999999999ap+02 util=0x1.2b8ddbaea09dfp-03/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=335 done=335 aborts=0 rt=0x1.b5a24dc44acdcp-01 p95=0x1.49d0369d0369ep+00 tput=0x1.399999999999ap+02 util=0x0p+00/0x1.c1a0768ceaf1p-03 calls=0x0p+00"},
	{name: "sweep30/p0.50", warmup: 5, duration: 30, rate: 0.2, pLocal: 0.5,
		cent: "centralized gen=68 done=66 aborts=0 rt=0x1.6f3001c93506ap-01 p95=0x1.970a3d70a3d71p-01 tput=0x1.0444444444444p+01 util=0x1.ffba184d8cdfdp-05/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=68 done=62 aborts=0 rt=0x1.3b8a9177ad90ap+01 p95=0x1.597e4b17e4b18p+02 tput=0x1.0444444444444p+01 util=0x0p+00/0x1.8036840bb57b3p-04 calls=0x1.e8eb04325c53fp+01"},
	{name: "sweep30/p0.75", warmup: 5, duration: 30, rate: 0.2, pLocal: 0.75,
		cent: "centralized gen=68 done=66 aborts=0 rt=0x1.6f3001c93506ap-01 p95=0x1.970a3d70a3d71p-01 tput=0x1.0444444444444p+01 util=0x1.ffba184d8cdfdp-05/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=68 done=66 aborts=0 rt=0x1.5a08d94f652acp+00 p95=0x1.3feb851eb851fp+02 tput=0x1.0444444444444p+01 util=0x0p+00/0x1.7cd56cecd23b3p-04 calls=0x1.368eb04325c54p+00"},
	{name: "sweep30/p0.90", warmup: 5, duration: 30, rate: 0.2, pLocal: 0.9,
		cent: "centralized gen=68 done=66 aborts=0 rt=0x1.6f3001c93506ap-01 p95=0x1.970a3d70a3d71p-01 tput=0x1.0444444444444p+01 util=0x1.ffba184d8cdfdp-05/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=68 done=66 aborts=0 rt=0x1.0f27e288bc7b9p+00 p95=0x1.26147ae147ae1p+02 tput=0x1.0444444444444p+01 util=0x0p+00/0x1.7cd56cecd23b5p-04 calls=0x1.2e29f79b47582p-01"},
	{name: "sweep30/p1.00", warmup: 5, duration: 30, rate: 0.2, pLocal: 1.0,
		cent: "centralized gen=68 done=66 aborts=0 rt=0x1.6f3001c93506ap-01 p95=0x1.970a3d70a3d71p-01 tput=0x1.0444444444444p+01 util=0x1.ffba184d8cdfdp-05/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=68 done=66 aborts=0 rt=0x1.939a9b861e38bp-01 p95=0x1.f53f7ced91687p-01 tput=0x1.0444444444444p+01 util=0x0p+00/0x1.7cd56cecd23b2p-04 calls=0x0p+00"},
	{name: "fig-arch/p0.50", warmup: 200, duration: 800, rate: 1.0, pLocal: 0.5,
		cent: "centralized gen=9895 done=9888 aborts=0 rt=0x1.72fffc04d2bfdp-01 p95=0x1.97122182a772cp-01 tput=0x1.3bccccccccccdp+03 util=0x1.2f136a4004337p-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=9895 done=9867 aborts=2 rt=0x1.9bd0d3681ae26p+01 p95=0x1.756e8a1bd4f08p+02 tput=0x1.3cp+03 util=0x0p+00/0x1.c6c88cd111d13p-02 calls=0x1.20404aa948b79p+02"},
	{name: "fig-arch/p0.75", warmup: 200, duration: 800, rate: 1.0, pLocal: 0.75,
		cent: "centralized gen=9895 done=9888 aborts=0 rt=0x1.731525e221137p-01 p95=0x1.97251c2422934p-01 tput=0x1.3bccccccccccdp+03 util=0x1.2f136a4004333p-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=9895 done=9875 aborts=0 rt=0x1.1413bc34fa37ep+01 p95=0x1.6a5fcf094c635p+02 tput=0x1.3bf5c28f5c28fp+03 util=0x0p+00/0x1.c6b5ec44208f3p-02 calls=0x1.25070864db799p+01"},
	{name: "fig-arch/p0.90", warmup: 200, duration: 800, rate: 1.0, pLocal: 0.9,
		cent: "centralized gen=9895 done=9888 aborts=0 rt=0x1.7317678d38eb9p-01 p95=0x1.972386b0a2ecdp-01 tput=0x1.3bccccccccccdp+03 util=0x1.2f136a4004333p-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=9895 done=9882 aborts=0 rt=0x1.8347f3a0924e7p+00 p95=0x1.5544877baaedfp+02 tput=0x1.3cp+03 util=0x0p+00/0x1.c6c6778c4ba86p-02 calls=0x1.d20cb3e9b48fap-01"},
	{name: "fig-arch/p1.00", warmup: 200, duration: 800, rate: 1.0, pLocal: 1.0,
		cent: "centralized gen=9895 done=9888 aborts=0 rt=0x1.7303234c1ca72p-01 p95=0x1.9718736937bebp-01 tput=0x1.3bccccccccccdp+03 util=0x1.2f136a4004337p-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=9895 done=9885 aborts=0 rt=0x1.15a6b53ddf675p+00 p95=0x1.0466ae3863dffp+01 tput=0x1.3beb851eb851fp+03 util=0x0p+00/0x1.c6b5e9fbbb72ap-02 calls=0x0p+00"},
	{name: "fig-arch-quick/p0.50", warmup: 50, duration: 200, rate: 1.0, pLocal: 0.5,
		cent: "centralized gen=2518 done=2510 aborts=0 rt=0x1.72e2d1e358aep-01 p95=0x1.9728f85909549p-01 tput=0x1.44f5c28f5c28fp+03 util=0x1.3791093f2514dp-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=2518 done=2487 aborts=0 rt=0x1.99088a412e152p+01 p95=0x1.74a2608c6f2d6p+02 tput=0x1.44a3d70a3d70ap+03 util=0x0p+00/0x1.d3aad25ffcf1bp-02 calls=0x1.1e581128c0c9ep+02"},
	{name: "fig-arch-quick/p0.75", warmup: 50, duration: 200, rate: 1.0, pLocal: 0.75,
		cent: "centralized gen=2518 done=2510 aborts=0 rt=0x1.72cfe22a8bafap-01 p95=0x1.9716838ce98cp-01 tput=0x1.44f5c28f5c28fp+03 util=0x1.3791093f2514dp-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=2518 done=2496 aborts=0 rt=0x1.1364c525da963p+01 p95=0x1.6a7db0e4174a8p+02 tput=0x1.447ae147ae148p+03 util=0x0p+00/0x1.d3799e69f7426p-02 calls=0x1.1f3e1b442a6a1p+01"},
	{name: "fig-arch-quick/p0.90", warmup: 50, duration: 200, rate: 1.0, pLocal: 0.9,
		cent: "centralized gen=2518 done=2510 aborts=0 rt=0x1.72e30a52323ap-01 p95=0x1.9722cfdc84229p-01 tput=0x1.44f5c28f5c28fp+03 util=0x1.3791093f2514dp-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=2518 done=2502 aborts=0 rt=0x1.838a68fa5e731p+00 p95=0x1.5647ae147ae14p+02 tput=0x1.4428f5c28f5c3p+03 util=0x0p+00/0x1.d340c34f8acfbp-02 calls=0x1.d9d70f6a6494ap-01"},
	{name: "fig-arch-quick/p1.00", warmup: 50, duration: 200, rate: 1.0, pLocal: 1.0,
		cent: "centralized gen=2518 done=2510 aborts=0 rt=0x1.72d687d7ebfabp-01 p95=0x1.9716838ce98cp-01 tput=0x1.44f5c28f5c28fp+03 util=0x1.3791093f2514dp-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=2518 done=2510 aborts=0 rt=0x1.16a503163a0ebp+00 p95=0x1.0ba15e4753af7p+01 tput=0x1.4547ae147ae14p+03 util=0x0p+00/0x1.d3bcd03be756p-02 calls=0x0p+00"},
	{name: "bench", warmup: 30, duration: 100, rate: 1.0, pLocal: 0.75,
		cent: "centralized gen=1324 done=1319 aborts=0 rt=0x1.72afa58e84b28p-01 p95=0x1.97227d2c5c2b8p-01 tput=0x1.4947ae147ae14p+03 util=0x1.3b352a8437331p-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=1324 done=1306 aborts=0 rt=0x1.17020f43cfc8ep+01 p95=0x1.6a40b780346dcp+02 tput=0x1.4c7ae147ae148p+03 util=0x0p+00/0x1.db753de97db46p-02 calls=0x1.17099bf721434p+01"},
	{name: "example/p0.50", warmup: 100, duration: 400, rate: 1.0, pLocal: 0.5, delay: 0.5,
		cent: "centralized gen=4888 done=4867 aborts=0 rt=0x1.530f62b1b9974p+00 p95=0x1.65286c3831ebp+00 tput=0x1.347ae147ae148p+03 util=0x1.286f28bf0a07cp-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=4888 done=4826 aborts=46 rt=0x1.9be775bcb86d5p+02 p95=0x1.8dd6c62690f4cp+03 tput=0x1.34ccccccccccdp+03 util=0x0p+00/0x1.bf3aba4c5bcp-02 calls=0x1.27760d43a5cdap+02"},
	{name: "example/p0.75", warmup: 100, duration: 400, rate: 1.0, pLocal: 0.75, delay: 0.5,
		cent: "centralized gen=4888 done=4867 aborts=0 rt=0x1.530592e588f93p+00 p95=0x1.6523914d816fcp+00 tput=0x1.347ae147ae148p+03 util=0x1.286f28bf0a07cp-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=4888 done=4846 aborts=35 rt=0x1.e49ee4d874492p+01 p95=0x1.879549d5f64c9p+03 tput=0x1.34a3d70a3d70ap+03 util=0x0p+00/0x1.be85475d5a595p-02 calls=0x1.293d71ffbc0d4p+01"},
	{name: "example/p0.90", warmup: 100, duration: 400, rate: 1.0, pLocal: 0.9, delay: 0.5,
		cent: "centralized gen=4888 done=4867 aborts=0 rt=0x1.5310b59fb0bd1p+00 p95=0x1.65286c3831ebp+00 tput=0x1.347ae147ae148p+03 util=0x1.286f28bf0a07cp-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=4888 done=4857 aborts=16 rt=0x1.13e779924a67bp+01 p95=0x1.6af3a4316f3a4p+03 tput=0x1.3466666666666p+03 util=0x0p+00/0x1.bd58506b014cep-02 calls=0x1.db79db79db79ep-01"},
	{name: "example/p1.00", warmup: 100, duration: 400, rate: 1.0, pLocal: 1.0, delay: 0.5,
		cent: "centralized gen=4888 done=4867 aborts=0 rt=0x1.530279fc2eb2dp+00 p95=0x1.6521f36d5b211p+00 tput=0x1.347ae147ae148p+03 util=0x1.286f28bf0a07cp-02/0x0p+00 calls=0x0p+00",
		dist: "distributed gen=4888 done=4867 aborts=0 rt=0x1.11447c8db9bd4p+00 p95=0x1.0458bf258bf24p+01 tput=0x1.3451eb851eb85p+03 util=0x0p+00/0x1.bcc0c342011b3p-02 calls=0x0p+00"},
}

// TestGoldenArchitectures re-runs every pinned point. On a mismatch the
// message carries the new rendering; paste it only when a change is meant
// to alter what an architecture simulates.
func TestGoldenArchitectures(t *testing.T) {
	for _, g := range goldenPoints {
		t.Run(g.name, func(t *testing.T) {
			cfg, timeout := g.config()
			cent, err := RunCentralized(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := hexResult(cent); got != g.cent {
				t.Errorf("centralized:\n got cent: %q\nwant cent: %q", got, g.cent)
			}
			dist, err := RunDistributed(cfg, timeout)
			if err != nil {
				t.Fatal(err)
			}
			if got := hexResult(dist); got != g.dist {
				t.Errorf("distributed:\n got dist: %q\nwant dist: %q", got, g.dist)
			}
		})
	}
}

// TestDistributedRepeatable runs the distributed architecture 20 times at
// TestDistributedTimeoutBreaksCrossSiteDeadlock's point, where aborts and
// two-phase commits send many same-instant release messages: a fixed seed
// must give one Result.
func TestDistributedRepeatable(t *testing.T) {
	cfg, timeout := goldenPoint{warmup: 20, duration: 120, rate: 0.4, pLocal: 0.3, contended: true}.config()
	first, err := RunDistributed(cfg, timeout)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		r, err := RunDistributed(cfg, timeout)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := hexResult(r), hexResult(first); got != want {
			t.Fatalf("call %d:\n got %s\nwant %s", i+1, got, want)
		}
	}
}
