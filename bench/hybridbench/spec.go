package main

// The benchmark's catalogue: workloads, end-to-end metrics, per-layer
// metrics. BENCHMARK.json at the repository root repeats the names, units
// and directions given here; TestBenchmarkJSONMatchesCatalogue holds the
// two together.

// metricDef describes one metric: its name, unit, and which way is better.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// Workload names.
const (
	wlSimPaper     = "sim-paper"
	wlSimContended = "sim-contended"
	wlSimScale     = "sim-scale1000"
	wlLiveWire     = "live-wire"
	wlLiveEmulated = "live-emulated"
)

// workloadDef names a workload and records why it was chosen.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{wlSimPaper, "The paper's 10-site system under the best dynamic strategy: uncontended locks, the event kernel, the CPU server and the routing decision do the work; sim.Group, netx and exec.Loop do none."},
	{wlSimContended, "Same engine under Zipf skew, 50% exclusive requests, partial replication and epochs: lock queues, seizures, deadlock walks and re-runs. A gain on the uncontended path must not lose here."},
	{wlSimScale, "1000 sites, run sharded then sequential: the only workload where sim.Group, the deep calendar, engine construction and memory footprint dominate; also the sharded-equals-sequential oracle."},
	{wlLiveWire, "Live loopback cluster, emulated service scaled to microseconds, closed loop then open loop at 4000/s: codec, netx frames and write pump, exec.Loop posts and timer arms are the cost."},
	{wlLiveEmulated, "Same cluster at millisecond-scale emulation: timers set the response time and program cost is noise, so a codec or write-pump gain must show no change here while timer lateness must."},
}

func isSimWorkload(name string) bool {
	return name == wlSimPaper || name == wlSimContended || name == wlSimScale
}

func isLiveWorkload(name string) bool {
	return name == wlLiveWire || name == wlLiveEmulated
}

func knownWorkload(name string) bool { return isSimWorkload(name) || isLiveWorkload(name) }

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them, from the untraced run. On sim-* workloads the
// rt_* metrics are in simulated time (the model's output, exactly
// reproducible per seed); on live-* workloads they are wall-clock response
// times from each request's due time. README.md gives each definition.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"txn_per_s", "1/s", "higher"},
	{"allocs_per_txn", "count", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"rt_mean_ms", "ms", "lower"},
	{"rt_p50_ms", "ms", "lower"},
	{"rt_p95_ms", "ms", "lower"},
}

// perLayer lists the metrics of single layers (layers = this repository's
// packages). Probe metrics (*_ns, *_us) are counted loops over exported
// functions, median of five; count metrics come from the traced run. A
// count reads 0 on a workload whose run never enters that layer.
var perLayer = []metricDef{
	// sim: the event kernel and the sharded synchronizer.
	{"sim.schedule_step_ns", "ns", "lower"},
	{"sim.hold_64k_ns", "ns", "lower"},
	{"sim.cancel_ns", "ns", "lower"},
	{"sim.group_post_ns", "ns", "lower"},
	{"sim.group_sync_overhead", "ratio", "lower"},
	{"sim.shard_speedup", "ratio", "higher"},
	{"sim.seq_txn_per_s", "1/s", "higher"},
	{"sim.events_per_txn", "count", "lower"},
	// lock: the lock manager.
	{"lock.txn_lifecycle_ns", "ns", "lower"},
	{"lock.coherence_ns", "ns", "lower"},
	{"lock.contended_ns", "ns", "lower"},
	{"lock.seize_ns", "ns", "lower"},
	{"lock.deadlock_ns", "ns", "lower"},
	{"lock.requests_per_txn", "count", "lower"},
	{"lock.waits_per_txn", "count", "lower"},
	{"lock.wait_share", "ratio", "lower"},
	{"lock.seizes_per_txn", "count", "lower"},
	{"lock.deadlocks_per_ktxn", "count", "lower"},
	// cpu: the FCFS processor model.
	{"cpu.submit_finish_ns", "ns", "lower"},
	{"cpu.submit_queued_ns", "ns", "lower"},
	{"cpu.bursts_per_txn", "count", "lower"},
	// workload: transaction generation.
	{"workload.next_ns", "ns", "lower"},
	{"workload.next_skewed_ns", "ns", "lower"},
	{"workload.next_allocs", "count", "lower"},
	// routing: the ship-or-run-local decision.
	{"routing.decide_best_ns", "ns", "lower"},
	{"routing.decide_static_ns", "ns", "lower"},
	// comm: the simulated star network.
	{"comm.send_deliver_ns", "ns", "lower"},
	{"comm.msgs_per_txn", "count", "lower"},
	// stats: the always-on metrics observer's accumulators.
	{"stats.hist_add_ns", "ns", "lower"},
	// hybrid: the engine as a whole and its budget.
	{"hybrid.ns_per_txn", "ns", "lower"},
	{"hybrid.budget_sum_ns", "ns", "lower"},
	{"hybrid.residual_ns", "ns", "lower"},
	{"hybrid.residual_share", "ratio", "lower"},
	{"hybrid.new_ms", "ms", "lower"},
	{"hybrid.exec_per_commit", "ratio", "lower"},
	{"hybrid.aborts_per_txn", "count", "lower"},
	{"hybrid.auth_rounds_per_txn", "count", "lower"},
	{"hybrid.cold_fetches_per_txn", "count", "lower"},
	{"hybrid.ship_fraction", "ratio", "lower"},
	// obs: the observer bus.
	{"obs.detail_events_per_txn", "count", "lower"},
	{"obs.counting_overhead_ratio", "ratio", "lower"},
	// exec: the wall-clock event loop.
	{"exec.post_ns", "ns", "lower"},
	{"exec.post_depth1k_ns", "ns", "lower"},
	{"exec.timer_late_p50_us", "us", "lower"},
	{"exec.timer_late_p99_us", "us", "lower"},
	{"exec.timer_late_busy_p50_us", "us", "lower"},
	// netx: codec, frames, connections.
	{"netx.encode_txn_ns", "ns", "lower"},
	{"netx.decode_txn_ns", "ns", "lower"},
	{"netx.codec_ns_per_frame", "ns", "lower"},
	{"netx.allocs_per_frame", "count", "lower"},
	{"netx.bytes_per_frame", "count", "lower"},
	{"netx.frames_per_s", "1/s", "higher"},
	{"netx.frame_rt_us", "us", "lower"},
	{"netx.writes_per_frame", "ratio", "lower"},
	// cluster: the live nodes' own registries.
	{"cluster.frames_per_txn", "count", "lower"},
	{"cluster.bytes_per_txn", "count", "lower"},
	{"cluster.ship_fraction", "ratio", "lower"},
	{"cluster.aborts_per_txn", "count", "lower"},
	{"cluster.auth_rounds_per_txn", "count", "lower"},
	{"cluster.send_queue_depth_max", "count", "lower"},
	{"cluster.queue_full_kills", "count", "lower"},
	{"cluster.ship_frac_abs_err", "ratio", "lower"},
	{"cluster.sim_pred_rt_ms", "ms", "lower"},
	{"cluster.rt_rel_err", "ratio", "lower"},
	{"cluster.conservation_ok", "count", "higher"},
	// load: the generator itself, so that its own limits are visible.
	{"load.offered_txn_per_s", "1/s", "higher"},
	{"load.late_p99_us", "us", "lower"},
	{"load.late_max_ms", "ms", "lower"},
	{"load.rt_p99_ms", "ms", "lower"},
	{"load.rt_p999_ms", "ms", "lower"},
	{"load.trace_overhead_ratio", "ratio", "lower"},
	// proc: the whole process. CPU per transaction is a diagnostic and not an
	// end-to-end metric because its run-to-run spread on the live workloads
	// (25-35 % of the median on the shared reference host) is wider than the
	// widest bound an end-to-end metric may carry.
	{"proc.cpu_us_per_txn", "us", "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload reports; its JSON form is the
// last line of standard output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects values against a catalogue, so that a run reports
// exactly the catalogue's names with the catalogue's units.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

// set records a value; a name outside the catalogue is a programming error.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.values[name] = v
			return
		}
	}
	panic("hybridbench: metric " + name + " is not in the catalogue")
}

// setAll records every entry of values.
func (m *metricSet) setAll(values map[string]float64) {
	for name, v := range values {
		m.set(name, v)
	}
}

func (m *metricSet) get(name string) float64 { return m.values[name] }

// export renders every catalogue entry; one never set reads 0.
func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}
