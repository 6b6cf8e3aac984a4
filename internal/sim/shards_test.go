package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// The shard-sync oracle machinery: a workload of message chains is executed
// twice — on a K-shard Group and on a single Simulator standing in for all
// K shards — and the per-shard execution logs must match exactly. Event
// times are built from dyadic rationals (multiples of 1/1024 plus a unique
// per-chain jitter of id/2^30), so float arithmetic is exact, every event
// time is globally unique by construction, and any ordering difference
// between the two executions is a synchronization bug, never a float tie.

// chainGrid is the time quantum of chain specs.
const chainGrid = 1.0 / 1024

// chainHop is one step of a chain: the next event executes on shard, gap
// grid steps after the minimum separation (zero for a same-shard hop, the
// group's lookahead for a cross-shard one).
type chainHop struct {
	shard int
	gap   int
}

// chainSpec is one chain: an initial event on shard start at grid time at,
// followed by the hops.
type chainSpec struct {
	start int
	at    int
	hops  []chainHop
}

// chainLog is one executed event, as recorded by the shard it ran on.
type chainLog struct {
	at  float64
	id  int32
	hop int32
}

// buildChains schedules every chain's initial event and wires the follow-on
// hops through simOf (same-shard scheduling) and post (cross-shard sends).
// It returns the per-shard logs (filled during the run) and a horizon past
// every event.
func buildChains(k int, lookahead float64, chains []chainSpec,
	simOf func(shard int) *Simulator,
	post func(from, to int, at Time, fn func())) (logs [][]chainLog, horizon Time) {
	logs = make([][]chainLog, k)
	var maxT Time
	for id, c := range chains {
		id, c := id, c
		t0 := Time(c.at)*chainGrid + Time(id)/(1<<30)
		end := t0
		for _, h := range c.hops {
			end += lookahead + Time(h.gap)*chainGrid
		}
		if end > maxT {
			maxT = end
		}
		var fire func(h, shard int) func()
		fire = func(h, shard int) func() {
			return func() {
				now := simOf(shard).Now()
				logs[shard] = append(logs[shard], chainLog{at: now, id: int32(id), hop: int32(h)})
				if h == len(c.hops) {
					return
				}
				next := c.hops[h]
				if next.shard == shard {
					simOf(shard).ScheduleAt(now+Time(next.gap)*chainGrid, fire(h+1, shard))
				} else {
					post(shard, next.shard, now+lookahead+Time(next.gap)*chainGrid, fire(h+1, next.shard))
				}
			}
		}
		simOf(c.start).ScheduleAt(t0, fire(0, c.start))
	}
	return logs, maxT + 1
}

// runChainsSharded executes the chains on a real K-shard Group.
func runChainsSharded(k, lookaheadSteps int, chains []chainSpec) [][]chainLog {
	sims := make([]*Simulator, k)
	for i := range sims {
		sims[i] = New()
	}
	lookahead := Time(lookaheadSteps) * chainGrid
	g := NewGroup(sims, k*k, lookahead)
	logs, horizon := buildChains(k, lookahead, chains,
		func(shard int) *Simulator { return sims[shard] },
		func(from, to int, at Time, fn func()) {
			g.Post(from, to, from*k+to, at, fn)
		})
	g.Run(horizon)
	return logs
}

// runChainsOracle executes the same chains on one Simulator playing all K
// shards: cross-shard sends become plain ScheduleAt calls at the same
// arrival times, so the oracle is trivially correct single-queue DES.
func runChainsOracle(k, lookaheadSteps int, chains []chainSpec) [][]chainLog {
	s := New()
	lookahead := Time(lookaheadSteps) * chainGrid
	logs, horizon := buildChains(k, lookahead, chains,
		func(int) *Simulator { return s },
		func(from, to int, at Time, fn func()) { s.ScheduleAt(at, fn) })
	s.RunUntil(horizon)
	return logs
}

// compareChainLogs demands per-shard identity between a Group execution and
// the single-queue oracle: same events, same order, same timestamps. This
// is exactly the conservative-synchronization guarantee — no event executes
// out of timestamp order within a shard, and cross-shard messages land at
// the same instants the oracle computes.
func compareChainLogs(t *testing.T, got, want [][]chainLog, ctx string) {
	t.Helper()
	for shard := range want {
		g, w := got[shard], want[shard]
		if len(g) != len(w) {
			t.Fatalf("%s: shard %d executed %d events, oracle %d", ctx, shard, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: shard %d event %d = %+v, oracle %+v", ctx, shard, i, g[i], w[i])
			}
		}
	}
}

// TestGroupMatchesSequentialOracle is the lookahead-logic property test:
// random chain workloads over random shard counts and lookahead windows,
// executed on the Group and on the single-queue oracle, must produce
// identical per-shard event sequences.
func TestGroupMatchesSequentialOracle(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		k := 2 + rng.Intn(4)
		lookaheadSteps := 1 + rng.Intn(16)
		chains := make([]chainSpec, 10+rng.Intn(80))
		for i := range chains {
			c := chainSpec{start: rng.Intn(k), at: rng.Intn(256)}
			for h := rng.Intn(9); h > 0; h-- {
				c.hops = append(c.hops, chainHop{shard: rng.Intn(k), gap: rng.Intn(24)})
			}
			chains[i] = c
		}
		got := runChainsSharded(k, lookaheadSteps, chains)
		want := runChainsOracle(k, lookaheadSteps, chains)
		compareChainLogs(t, got, want, "trial")
	}
}

// TestGroupTimestampOrderPerShard re-checks the core conservative property
// directly on the Group logs, independent of the oracle: within every
// shard, executed timestamps never decrease.
func TestGroupTimestampOrderPerShard(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	chains := make([]chainSpec, 60)
	for i := range chains {
		c := chainSpec{start: rng.Intn(3), at: rng.Intn(128)}
		for h := rng.Intn(7); h > 0; h-- {
			c.hops = append(c.hops, chainHop{shard: rng.Intn(3), gap: rng.Intn(10)})
		}
		chains[i] = c
	}
	logs := runChainsSharded(3, 4, chains)
	total := 0
	for shard, log := range logs {
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				t.Fatalf("shard %d executed %v after %v", shard, log[i].at, log[i-1].at)
			}
		}
		total += len(log)
	}
	if total == 0 {
		t.Fatal("no events executed")
	}
}

// TestGroupValueInboxOrder: values ride two edges into one shard with arrival
// times that regress within a post burst and across rounds, and that tie
// across the edges. Each value must be received at its own arrival instant,
// on its own edge, in (time, edge, post order) order — the pairing of
// delivery events to inbox entries is positional, so an inbox that kept post
// order would hand values to the wrong events.
func TestGroupValueInboxOrder(t *testing.T) {
	type post struct {
		at   Time
		edge int
		v    int
	}
	// Shard i posts on edge i, values i*100, i*100+1, … in post order, and
	// logs its posts itself (the sending shards run concurrently).
	var posts [2][]post
	sims := []*Simulator{New(), New(), New()}
	var got []post
	g := NewGroupOf(sims, 2, 1.0, func(edge int, v int) {
		got = append(got, post{at: sims[2].Now(), edge: edge, v: v})
	})
	burst := func(from int, at Time, arrivals ...Time) {
		sims[from].ScheduleAt(at, func() {
			for _, a := range arrivals {
				p := post{at: a, edge: from, v: from*100 + len(posts[from])}
				posts[from] = append(posts[from], p)
				g.Post(from, 2, from, a, p.v)
			}
		})
	}
	// Shard 0's second burst regresses below its first burst's 5.0, which
	// is still in the inbox then: shard 2 cannot pass 3.5+lookahead before
	// shard 0 has run 3.5. Shard 1's last burst is monotone and lands on an
	// empty inbox.
	burst(0, 0, 3.0, 2.0, 2.0, 1.5, 5.0)
	burst(1, 0, 2.0, 1.5, 3.0, 2.0)
	burst(0, 3.5, 4.75, 4.5, 5.0)
	burst(1, 6, 7.0, 7.0, 7.5)
	g.Run(10)

	want := append(slices.Clone(posts[0]), posts[1]...)
	slices.SortStableFunc(want, func(a, b post) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.edge, b.edge)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("received (at, edge, value)\n%v\nwant\n%v", got, want)
	}
}

// TestGroupGlobalBarrierOrdering: globals at one instant run in (prio,
// FIFO) order, with every shard clock aligned on the instant, interleaved
// correctly with shard work.
func TestGroupGlobalBarrierOrdering(t *testing.T) {
	sims := []*Simulator{New(), New()}
	g := NewGroup(sims, 0, 0.5)

	var order []string
	rec := func(tag string) func() {
		return func() {
			for i, s := range sims {
				if s.Now() != 2.0 && (tag == "a" || tag == "b" || tag == "c") {
					t.Errorf("global %s: shard %d clock %v, want 2.0", tag, i, s.Now())
				}
			}
			order = append(order, tag)
		}
	}
	// Same instant, priorities out of insertion order.
	g.ScheduleGlobalAt(2.0, 1, rec("b"))
	g.ScheduleGlobalAt(2.0, 0, rec("a"))
	g.ScheduleGlobalAt(2.0, 2, rec("c"))
	g.ScheduleGlobalAt(3.0, 0, rec("d"))

	// Shard work straddling the barrier instant.
	sims[0].ScheduleAt(1.0, func() { order = append(order, "s0@1") })
	sims[1].ScheduleAt(2.5, func() { order = append(order, "s1@2.5") })

	g.Run(4.0)
	want := []string{"s0@1", "a", "b", "c", "s1@2.5", "d"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	for i, s := range sims {
		if s.Now() != 4.0 {
			t.Errorf("shard %d ended at %v, want horizon 4.0", i, s.Now())
		}
	}
}

// TestGroupHorizonSemantics: events exactly at the horizon execute, clocks
// end on the horizon, and a message posted at the horizon stays pending
// (counted as sent, never delivered) — matching RunUntil on one queue.
func TestGroupHorizonSemantics(t *testing.T) {
	sims := []*Simulator{New(), New()}
	g := NewGroup(sims, 1, 0.25)
	ranAtHorizon := false
	delivered := false
	sims[0].ScheduleAt(2.0, func() {
		ranAtHorizon = true
		g.Post(0, 1, 0, sims[0].Now()+0.25, func() { delivered = true })
	})
	g.Run(2.0)
	if !ranAtHorizon {
		t.Error("event at the horizon did not run")
	}
	if delivered {
		t.Error("post beyond the horizon was delivered")
	}
	if sims[0].Now() != 2.0 || sims[1].Now() != 2.0 {
		t.Errorf("clocks %v/%v, want 2.0", sims[0].Now(), sims[1].Now())
	}
}

// TestGroupConstructionPanics pins the misuse guards.
func TestGroupConstructionPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("one shard", func() { NewGroup([]*Simulator{New()}, 0, 1) })
	mustPanic("zero lookahead", func() { NewGroup([]*Simulator{New(), New()}, 0, 0) })
	mustPanic("negative edges", func() { NewGroup([]*Simulator{New(), New()}, -1, 1) })
	mustPanic("lookahead violation", func() {
		g := NewGroup([]*Simulator{New(), New()}, 1, 1.0)
		g.Post(0, 1, 0, 0.5, func() {})
	})
	mustPanic("nil post", func() {
		g := NewGroup([]*Simulator{New(), New()}, 1, 1.0)
		g.Post(0, 1, 0, 2.0, nil)
	})
	mustPanic("hub out of range", func() {
		g := NewGroup([]*Simulator{New(), New()}, 1, 1.0)
		g.SetHub(2)
	})
}

// TestGroupWatchdogStallDump exercises the deadlock watchdog end to end
// without killing the process: one shard's event blocks mid-round, the
// watchdog trips after its budget, and the installed stall handler receives
// a dump naming the round state of every shard. The handler then releases
// the stuck event so the run completes normally — proving the handler path
// (unlike the default panic) leaves the Group able to finish.
func TestGroupWatchdogStallDump(t *testing.T) {
	shards := []*Simulator{New(), New()}
	g := NewGroup(shards, 0, 1.0)
	g.SetWatchdog(200 * time.Millisecond)

	release := make(chan struct{})
	dumps := make(chan string, 1)
	g.SetStallHandler(func(dump string) {
		dumps <- dump
		close(release) // un-stick the shard so Run can return
	})

	var ran bool
	shards[0].ScheduleAt(0.5, func() {})
	shards[1].ScheduleAt(0.5, func() {
		<-release // a synchronization bug stand-in: the round never ends
		ran = true
	})
	done := make(chan struct{})
	go func() {
		g.Run(10)
		close(done)
	}()

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stalled run did not complete after the handler released it")
	}
	if !ran {
		t.Fatal("blocked event never resumed")
	}
	var dump string
	select {
	case dump = <-dumps:
	default:
		t.Fatal("watchdog fired no stall report")
	}
	for _, want := range []string{"stalled", "shard 0", "shard 1", "round="} {
		if !strings.Contains(dump, want) {
			t.Errorf("stall dump missing %q:\n%s", want, dump)
		}
	}
}

// TestGroupWatchdogQuietOnProgress pins that a healthy run under a tight
// watchdog budget completes without the stall handler ever firing.
func TestGroupWatchdogQuietOnProgress(t *testing.T) {
	shards := []*Simulator{New(), New()}
	g := NewGroup(shards, 2, 1.0)
	g.SetWatchdog(5 * time.Second)
	fired := make(chan string, 1)
	g.SetStallHandler(func(dump string) { fired <- dump })

	// A ping-pong load: each delivery schedules the next, so every round
	// makes progress until the horizon.
	var count int
	var ping func()
	ping = func() {
		count++
		from, to, edge := 0, 1, 0
		if count%2 == 1 {
			from, to, edge = 1, 0, 1
		}
		at := g.Shard(from).Now() + 1.5
		if at < 50 {
			g.Post(from, to, edge, at, ping)
		}
	}
	shards[0].ScheduleAt(0.25, func() { g.Post(0, 1, 0, 1.75, ping) })
	g.Run(50)
	select {
	case dump := <-fired:
		t.Fatalf("watchdog fired on a healthy run:\n%s", dump)
	default:
	}
	if count == 0 {
		t.Fatal("ping-pong load never ran")
	}
}
