package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hybriddb/internal/cluster"
	"hybriddb/internal/hybrid"
	"hybriddb/internal/obsx/metrics"
	"hybriddb/internal/obsx/spans"
	"hybriddb/internal/routing"
)

// TestRunFlagValidation pins the CLI's error paths without booting anything.
func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{},                 // missing role
		{"-role", "bogus"}, // unknown role
		{"-role", "site"},  // site without -central
		{"-role", "site", "-central", "x", "-strategy", "nope"}, // unknown strategy
		{"-role", "central", "-feedback", "ideal"},              // unsupported live feedback
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// proc wraps a hybridd/hybridload child process with line-captured stdout.
// Output is captured through an io.Writer (proc.Write) rather than
// StdoutPipe: cmd.Wait closes a pipe as soon as the child exits, which
// races a reader goroutine for the final lines (the shutdown counter line
// would intermittently vanish), whereas with a plain Writer, Wait blocks
// until exec's copier has delivered everything.
type proc struct {
	t     *testing.T
	name  string
	cmd   *exec.Cmd
	lines chan string
	mu    sync.Mutex
	out   bytes.Buffer
	tail  []byte // bytes of the current, not-yet-terminated line
}

func startProc(t *testing.T, name, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{t: t, name: name, cmd: exec.Command(bin, args...), lines: make(chan string, 64)}
	p.cmd.Stdout = p
	p.cmd.Stderr = p // interleave; errors show up in the line feed too
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("%s: start: %v", name, err)
	}
	return p
}

// Write implements io.Writer for the child's stdout+stderr: accumulate the
// full transcript and feed completed lines to the expectLine channel.
func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out.Write(b)
	p.tail = append(p.tail, b...)
	for {
		i := bytes.IndexByte(p.tail, '\n')
		if i < 0 {
			return len(b), nil
		}
		line := string(p.tail[:i])
		p.tail = p.tail[i+1:]
		select {
		case p.lines <- line:
		default:
		}
	}
}

// expectLine waits for a stdout line containing substr and returns it.
func (p *proc) expectLine(substr string, timeout time.Duration) string {
	p.t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case line := <-p.lines:
			if strings.Contains(line, substr) {
				return line
			}
		case <-deadline:
			p.t.Fatalf("%s did not print %q within %v; output:\n%s", p.name, substr, timeout, p.output())
		}
	}
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// terminate sends SIGTERM and requires a clean (exit 0) shutdown.
func (p *proc) terminate() {
	p.t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.t.Fatalf("%s: SIGTERM: %v", p.name, err)
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			p.t.Errorf("%s did not exit cleanly on SIGTERM: %v; output:\n%s", p.name, err, p.output())
		}
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		p.t.Fatalf("%s hung on SIGTERM; output:\n%s", p.name, p.output())
	}
}

func (p *proc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// listenAddr extracts the address from a "listening on <addr>" line.
func listenAddr(t *testing.T, line string) string {
	t.Helper()
	_, after, ok := strings.Cut(line, "listening on ")
	if !ok {
		t.Fatalf("no address in %q", line)
	}
	return strings.Fields(after)[0]
}

// debugURL extracts the /metrics URL from a "debug listener on http://..."
// line.
func debugURL(t *testing.T, line string) string {
	t.Helper()
	_, after, ok := strings.Cut(line, "debug listener on ")
	if !ok {
		t.Fatalf("no debug URL in %q", line)
	}
	return strings.Fields(after)[0]
}

// spanVocabulary reads a Chrome trace-event file and returns the kinds of
// event in it, each as "lane kind|phase|name|arg keys": what a trace says,
// with the ids, sites and times taken out.
func spanVocabulary(t *testing.T, path string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	laneKind := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			laneKind[ev.Pid], _, _ = strings.Cut(ev.Args["name"], " ") // "central complex", "site 3"
		}
	}
	vocab := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		keys := make([]string, 0, len(ev.Args))
		for k := range ev.Args {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		vocab[strings.Join([]string{laneKind[ev.Pid], ev.Ph, ev.Name, strings.Join(keys, ",")}, "|")] = true
	}
	return vocab
}

// TestClusterProcessSmoke is the `make cluster-smoke` gate at the process
// level: build both binaries, boot 1 central + 4 sites as real processes on
// loopback (DefaultLiveConfig, ports picked by the kernel), run a short
// paced load, scrape every node's /metrics and require transaction
// conservation per site and cluster-wide and one response time per
// completion at every site, then require nonzero commits,
// zero request errors, clean SIGTERM shutdowns all around, and a merged
// span trace with at least one transaction crossing two processes that says
// nothing a simulator's export of the same configuration does not.
func TestClusterProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: builds binaries and runs a paced cluster")
	}
	dir := t.TempDir()
	hybridd := dir + "/hybridd"
	hybridload := dir + "/hybridload"
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, b := range []struct{ out, pkg string }{
		{hybridd, "hybriddb/cmd/hybridd"},
		{hybridload, "hybriddb/cmd/hybridload"},
	} {
		if out, err := exec.CommandContext(ctx, "go", "build", "-o", b.out, b.pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b.pkg, err, out)
		}
	}

	// The debug-listener line prints before the listening line, and
	// expectLine discards non-matching lines, so capture them in that order.
	const sites = 4 // DefaultLiveConfig().Sites
	spanFiles := []string{dir + "/spans-central.json"}
	central := startProc(t, "central", hybridd, "-role", "central", "-listen", "127.0.0.1:0",
		"-debug-addr", "127.0.0.1:0", "-spans", spanFiles[0])
	defer central.kill()
	centralMetrics := debugURL(t, central.expectLine("debug listener on", 10*time.Second))
	centralAddr := listenAddr(t, central.expectLine("listening on", 10*time.Second))

	var siteProcs []*proc
	var siteAddrs, siteMetrics []string
	for i := 0; i < sites; i++ {
		spanFile := fmt.Sprintf("%s/spans-site%d.json", dir, i)
		spanFiles = append(spanFiles, spanFile)
		s := startProc(t, fmt.Sprintf("site%d", i), hybridd,
			"-role", "site", "-id", fmt.Sprint(i), "-central", centralAddr,
			"-listen", "127.0.0.1:0", "-strategy", "threshold:0",
			"-debug-addr", "127.0.0.1:0", "-spans", spanFile)
		defer s.kill()
		siteProcs = append(siteProcs, s)
		siteMetrics = append(siteMetrics, debugURL(t, s.expectLine("debug listener on", 10*time.Second)))
		siteAddrs = append(siteAddrs, listenAddr(t, s.expectLine("listening on", 10*time.Second)))
	}

	load := startProc(t, "hybridload", hybridload,
		"-addrs", strings.Join(siteAddrs, ","),
		"-warmup", "0.4", "-duration", "1.5", "-ramp", "0.2", "-threads", "2")
	defer load.kill()
	done := make(chan error, 1)
	go func() { done <- load.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("hybridload failed: %v; output:\n%s", err, load.output())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("hybridload hung; output:\n%s", load.output())
	}
	lout := load.output()
	if !strings.Contains(lout, " completed, 0 errors") {
		t.Errorf("load run reported errors or no summary:\n%s", lout)
	}
	if strings.Contains(lout, " 0 completed,") {
		t.Errorf("load run completed nothing:\n%s", lout)
	}

	// Scrape every node while the cluster is up and hold the flow invariants:
	// the mirrored metrics are loop-consistent, so they must balance exactly
	// at any instant, stragglers included.
	centralSnap, err := metrics.ScrapeHTTP(centralMetrics)
	if err != nil {
		t.Fatalf("scrape central: %v", err)
	}
	if got, want := centralSnap["central_ship_arrived_total"],
		centralSnap["central_commits_total"]+centralSnap["central_in_system"]; got != want {
		t.Errorf("central conservation broken: ship_arrived %v != commits %v + in_system %v",
			got, centralSnap["central_commits_total"], centralSnap["central_in_system"])
	}
	if centralSnap["central_ship_arrived_total"] == 0 {
		t.Error("central metrics saw no shipped transactions")
	}
	var genSum, doneSum float64
	for i, url := range siteMetrics {
		snap, err := metrics.ScrapeHTTP(url)
		if err != nil {
			t.Fatalf("scrape site %d: %v", i, err)
		}
		gen := snap["site_generated_total"]
		acc := snap["site_completed_local_total"] + snap["site_replies_delivered_total"] + snap["site_in_flight"]
		if gen != acc {
			t.Errorf("site %d conservation broken: generated %v != completed_local %v + replies %v + in_flight %v",
				i, gen, snap["site_completed_local_total"], snap["site_replies_delivered_total"], snap["site_in_flight"])
		}
		// One response time per completion, from the same loop instant.
		if rt, local := snap[`site_rt_seconds_count{route="local"}`], snap["site_completed_local_total"]; rt != local {
			t.Errorf("site %d: %v local response times for %v local commits", i, rt, local)
		}
		if rt, replies := snap[`site_rt_seconds_count{route="shipped"}`]+snap[`site_rt_seconds_count{route="ship_b"}`],
			snap["site_replies_delivered_total"]; rt != replies {
			t.Errorf("site %d: %v shipped response times for %v replies delivered", i, rt, replies)
		}
		genSum += gen
		doneSum += acc
	}
	if genSum != doneSum {
		t.Errorf("cluster-wide conservation broken: %v generated vs %v accounted", genSum, doneSum)
	}
	if genSum == 0 {
		t.Error("site metrics saw no transactions")
	}

	// Clean shutdown: sites first (uplinks drop), central last. Each must
	// exit 0, print its counter line, and write its span file.
	for _, s := range siteProcs {
		s.terminate()
		if !strings.Contains(s.output(), "done:") {
			t.Errorf("%s printed no shutdown counters:\n%s", s.name, s.output())
		}
	}
	central.terminate()
	if !strings.Contains(central.output(), "done:") {
		t.Errorf("central printed no shutdown counters:\n%s", central.output())
	}
	if !strings.Contains(central.output(), "commits") {
		t.Errorf("central counters missing commits:\n%s", central.output())
	}

	// Merge the per-process span files and require at least one shipped
	// transaction whose span tree crosses processes (site txn + central exec).
	merged := dir + "/trace.json"
	info, err := spans.MergeToFile(merged, spanFiles...)
	if err != nil {
		t.Fatalf("merging span files: %v", err)
	}
	t.Logf("trace merge: %d files, %d events, %d processes, %d cross-process txns",
		info.Files, info.Events, info.Processes, info.CrossProcessTxns)
	if info.Processes < 2 {
		t.Errorf("merged trace covers %d processes, want >= 2", info.Processes)
	}
	if info.CrossProcessTxns == 0 {
		t.Error("no transaction's span tree crosses processes in the merged trace")
	}

	// One span vocabulary: the live nodes fold their traces with the
	// simulator's collector, so every kind of event in the merged trace
	// occurs in a (much longer) simulated run of the same configuration.
	cfg := cluster.DefaultLiveConfig()
	cfg.Warmup, cfg.Duration = 0, 600
	engine, err := hybrid.New(cfg, routing.QueueThreshold{Theta: 0})
	if err != nil {
		t.Fatal(err)
	}
	collector := spans.NewCollector(cfg.Sites)
	engine.Subscribe(collector)
	engine.Run()
	simulated := dir + "/simulated.json"
	if err := collector.WriteFile(simulated); err != nil {
		t.Fatal(err)
	}
	live, sim := spanVocabulary(t, merged), spanVocabulary(t, simulated)
	for kind := range live {
		if !sim[kind] {
			t.Errorf("the live trace has a %q event; the simulator's export has none", kind)
		}
	}
	if !live["site|B|attempt|n"] || !live["central|B|attempt|n"] {
		t.Errorf("the live trace shows no execution attempt at both tiers: %v", live)
	}
}
