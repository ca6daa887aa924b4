package trace

import (
	"encoding/json"
	"net/http"
	"sort"
)

// HTTP debug surface of the flight recorder:
//
//	GET /debug/traces            — retained traces as JSON
//	                               (?trace=<16 hex> selects one, 404 unknown)
//	GET /debug/traces/perfetto   — Chrome trace-event JSON, loadable in
//	                               ui.perfetto.dev ("Open trace file")

// traceJSON is one trace in the /debug/traces body.
type traceJSON struct {
	Trace string     `json:"trace"`
	Spans []SpanData `json:"spans"`
}

// Handler serves the debug routes above. Mount it at both /debug/traces
// and /debug/traces/ so the sub-path resolves.
func (r *Recorder) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/traces", r.serveJSON)
	mux.HandleFunc("GET /debug/traces/{$}", r.serveJSON)
	mux.HandleFunc("GET /debug/traces/perfetto", r.servePerfetto)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort: the client may be gone
}

func (r *Recorder) serveJSON(w http.ResponseWriter, req *http.Request) {
	if q := req.URL.Query().Get("trace"); q != "" {
		id, ok := parseHex16(q)
		if !ok {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed trace id"})
			return
		}
		td, ok := r.Trace(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "trace not retained"})
			return
		}
		writeJSON(w, http.StatusOK, traceJSON{Trace: FormatID(td.ID), Spans: td.Spans})
		return
	}
	all := r.Traces()
	out := struct {
		Traces []traceJSON `json:"traces"`
	}{Traces: make([]traceJSON, 0, len(all))}
	for _, td := range all {
		out.Traces = append(out.Traces, traceJSON{Trace: FormatID(td.ID), Spans: td.Spans})
	}
	writeJSON(w, http.StatusOK, out)
}

// perfettoEvent is one Chrome trace-event record. Spans render as "X"
// (complete) events; process names as "M" (metadata) events.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func (r *Recorder) servePerfetto(w http.ResponseWriter, req *http.Request) {
	all := r.Traces()

	// Stable pid per process name, in first-seen order.
	pids := map[string]int{}
	pid := func(proc string) int {
		if p, ok := pids[proc]; ok {
			return p
		}
		p := len(pids) + 1
		pids[proc] = p
		return p
	}

	events := []perfettoEvent{}
	nextTid := 1
	for _, td := range all {
		events = append(events, perfettoSpans(td, pid, &nextTid)...)
	}
	procs := make([]string, 0, len(pids))
	for p := range pids {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	meta := make([]perfettoEvent, 0, len(procs))
	for _, p := range procs {
		name := p
		if name == "" {
			name = "d500"
		}
		meta = append(meta, perfettoEvent{
			Name: "process_name", Ph: "M", Pid: pids[p], Tid: 0,
			Args: map[string]any{"name": name},
		})
	}
	writeJSON(w, http.StatusOK, struct {
		TraceEvents     []perfettoEvent `json:"traceEvents"`
		DisplayTimeUnit string          `json:"displayTimeUnit"`
	}{TraceEvents: append(meta, events...), DisplayTimeUnit: "ms"})
}

// perfettoSpans renders one trace's spans as X events, assigning lanes
// (tids) so rendered slices on a lane always nest: a span joins a lane
// only if it fits inside that lane's innermost open slice. Sibling spans
// that overlap in time (concurrent serve batches, ranks) land on separate
// lanes instead of producing invalid nesting.
func perfettoSpans(td TraceData, pid func(string) int, nextTid *int) []perfettoEvent {
	type iv struct {
		span       SpanData
		start, end int64
	}
	byProc := map[string][]iv{}
	var procOrder []string
	for _, s := range td.Spans {
		start := s.Start.UnixNano()
		if _, ok := byProc[s.Process]; !ok {
			procOrder = append(procOrder, s.Process)
		}
		byProc[s.Process] = append(byProc[s.Process], iv{span: s, start: start, end: start + s.Duration.Nanoseconds()})
	}
	var out []perfettoEvent
	for _, proc := range procOrder {
		ivs := byProc[proc]
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].start != ivs[j].start {
				return ivs[i].start < ivs[j].start
			}
			return ivs[i].end > ivs[j].end
		})
		// Each lane holds a stack of open intervals.
		var lanes [][]iv
		laneTid := []int{}
		for _, s := range ivs {
			lane := -1
			for li := range lanes {
				stack := lanes[li]
				for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
					stack = stack[:len(stack)-1]
				}
				lanes[li] = stack
				if len(stack) == 0 || (s.start >= stack[len(stack)-1].start && s.end <= stack[len(stack)-1].end) {
					lane = li
					break
				}
			}
			if lane == -1 {
				lanes = append(lanes, nil)
				laneTid = append(laneTid, *nextTid)
				*nextTid++
				lane = len(lanes) - 1
			}
			lanes[lane] = append(lanes[lane], s)

			args := map[string]any{
				"trace": FormatID(s.span.Trace),
				"span":  FormatID(s.span.ID),
			}
			if s.span.Parent != 0 {
				args["parent"] = FormatID(s.span.Parent)
			}
			if len(s.span.Links) > 0 {
				links := make([]string, len(s.span.Links))
				for i, l := range s.span.Links {
					links[i] = FormatID(l)
				}
				args["links"] = links
			}
			if s.span.Error {
				args["error"] = true
			}
			for k, v := range attrMap(s.span.Attrs) {
				args[k] = v
			}
			out = append(out, perfettoEvent{
				Name: s.span.Name, Cat: "d500", Ph: "X",
				Ts:  float64(s.start) / 1e3,
				Dur: float64(s.span.Duration.Nanoseconds()) / 1e3,
				Pid: pid(proc), Tid: laneTid[lane], Args: args,
			})
		}
	}
	return out
}
