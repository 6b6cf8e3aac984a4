package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// The benchmark's own span recorder. Spans are taken around the calls into
// each layer (phases of a run, layer probes, live requests) and kept in
// memory; the Chrome trace-event file is written once, when the run ends.
// Spans inside the program under test are a later change. A nil *recorder
// is the untraced run: every method is a no-op.

// span is one recorded interval. Start and End are nanoseconds since the
// recorder's epoch; Parent is the index of the span that caused it, -1 for
// a root.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int
	// Mid is an optional instant inside the span (a request's send time
	// between its due time and its reply); 0 when unused.
	Mid int64
	// Request marks a per-request span: requests overlap, so the writer
	// emits them as async events instead of nested complete events.
	Request bool
}

type recorder struct {
	run   string // workload-run identifier shared by every span
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, epoch: time.Now()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span now and returns its index.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: r.now(), End: -1, Parent: parent})
	return len(r.spans) - 1
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = r.now()
}

// add records a finished span whose instants were measured elsewhere.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span, its duration minus the part of that interval
// its direct children cover (overlapping children are not double-counted).
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.End > s.Start {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		if s.End <= s.Start {
			continue
		}
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		cur := s.Start // everything below cur is already accounted for
		for _, k := range ivs {
			lo, hi := k.lo, k.hi
			if lo < cur {
				lo = cur
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the recorded spans as a Chrome trace-event JSON array.
func (r *recorder) writeChrome(w io.Writer) error {
	spans := r.snapshot()
	self := selfTimes(spans)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev) // Encode appends the newline
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		args := map[string]any{"span": i, "parent": s.Parent, "run": r.run}
		if !s.Request {
			args["self_us"] = us(self[i])
			if err := emit(chromeEvent{Name: s.Name, Cat: "phase", Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: 0, Args: args}); err != nil {
				return err
			}
			continue
		}
		id := fmt.Sprintf("0x%x", i)
		if err := emit(chromeEvent{Name: s.Name, Cat: "request", Ph: "b", Ts: us(s.Start), Pid: 1, Tid: 1, ID: id, Args: args}); err != nil {
			return err
		}
		if s.Mid > 0 {
			if err := emit(chromeEvent{Name: "sent", Cat: "request", Ph: "n", Ts: us(s.Mid), Pid: 1, Tid: 1, ID: id}); err != nil {
				return err
			}
		}
		if err := emit(chromeEvent{Name: s.Name, Cat: "request", Ph: "e", Ts: us(s.End), Pid: 1, Tid: 1, ID: id}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
