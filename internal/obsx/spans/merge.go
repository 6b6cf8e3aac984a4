package spans

// MergeFiles fuses per-process trace files (one per cluster process, each
// written by a Collector after SetProcess) into a single Chrome trace-event
// file. Each
// input's events are shifted by its recorded clock offset into the central
// timebase, process-name metadata is deduplicated per lane, and events are
// ordered by shifted timestamp — so a shipped transaction's spans, recorded
// independently at its home site and at central, line up as one tree under
// one tid across two process lanes in Perfetto.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// MergeInfo summarizes a merge.
type MergeInfo struct {
	Files            int // input files read
	Events           int // non-metadata events written
	Processes        int // distinct process lanes
	CrossProcessTxns int // transactions with events in >= 2 lanes
}

// jsonEvent mirrors the written trace-event shape for parsing.
type jsonEvent struct {
	Name string            `json:"name,omitempty"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Pid  int               `json:"pid"`
	Tid  int64             `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type jsonTrace struct {
	OtherData   map[string]string `json:"otherData"`
	TraceEvents []jsonEvent       `json:"traceEvents"`
}

// MergeFiles reads the named trace files, shifts each into the central
// timebase using its embedded clockOffsetSeconds, and writes the fused
// trace to w.
func MergeFiles(w io.Writer, paths ...string) (MergeInfo, error) {
	if len(paths) == 0 {
		return MergeInfo{}, fmt.Errorf("spans: merge needs at least one input file")
	}
	var merged []event
	laneNames := map[int]string{} // pid -> process name, first file wins
	txnLanes := map[int64]map[int]bool{}
	info := MergeInfo{Files: len(paths)}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return MergeInfo{}, err
		}
		var tf jsonTrace
		if err := json.Unmarshal(data, &tf); err != nil {
			return MergeInfo{}, fmt.Errorf("spans: %s: %w", path, err)
		}
		var offsetUs float64 // clock offset in trace microseconds
		if s, ok := tf.OtherData["clockOffsetSeconds"]; ok {
			off, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return MergeInfo{}, fmt.Errorf("spans: %s: bad clockOffsetSeconds %q: %w", path, s, err)
			}
			offsetUs = off * 1e6
		}
		for _, je := range tf.TraceEvents {
			if je.Ph == "" {
				return MergeInfo{}, fmt.Errorf("spans: %s: event with no phase", path)
			}
			if je.Ph == "M" {
				if _, ok := laneNames[je.Pid]; !ok {
					laneNames[je.Pid] = je.Args["name"]
				}
				continue
			}
			// Internal events carry seconds; the file carries microseconds.
			e := event{
				name: je.Name,
				cat:  je.Cat,
				ph:   je.Ph[0],
				ts:   (je.Ts + offsetUs) / 1e6,
				pid:  je.Pid,
				tid:  je.Tid,
			}
			if len(je.Args) > 0 {
				keys := make([]string, 0, len(je.Args))
				for k := range je.Args {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					e.args = append(e.args, kv{k: k, v: je.Args[k]})
				}
			}
			merged = append(merged, e)
			lanes := txnLanes[e.tid]
			if lanes == nil {
				lanes = map[int]bool{}
				txnLanes[e.tid] = lanes
			}
			lanes[e.pid] = true
		}
	}
	// Order by shifted time; ties keep input order so B/E nesting recorded
	// within one process survives the merge.
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].ts < merged[j].ts })
	for _, lanes := range txnLanes {
		if len(lanes) >= 2 {
			info.CrossProcessTxns++
		}
	}
	info.Events = len(merged)
	info.Processes = len(laneNames)

	pids := make([]int, 0, len(laneNames))
	for pid := range laneNames {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"mergedFiles\":\"%d\"},\"traceEvents\":[\n", len(paths))
	first := true
	for _, pid := range pids {
		writeMeta(&buf, &first, pid, laneNames[pid])
	}
	for i := range merged {
		writeEvent(&buf, &first, &merged[i])
	}
	buf.WriteString("\n]}\n")
	_, err := buf.WriteTo(w)
	return info, err
}

// MergeToFile merges into a new file at outPath.
func MergeToFile(outPath string, paths ...string) (MergeInfo, error) {
	f, err := os.Create(outPath)
	if err != nil {
		return MergeInfo{}, err
	}
	info, err := MergeFiles(f, paths...)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return info, err
}
