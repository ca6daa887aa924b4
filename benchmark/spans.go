package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the program. Spans of one request or step share Op;
// Parent is the span that caused this one (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// batchSample is one ServeSample event with its arrival time; serve.queue
// and serve.exec spans are reconstructed from it when the run ends.
type batchSample struct {
	arrivalNS, waitNS, execNS int64
	rows                      int
}

// recorder keeps the spans of one traced segment in memory.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	batches []batchSample
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }
func (r *recorder) now() int64           { return r.at(time.Now()) }
func (r *recorder) newID() int64         { return r.nextID.Add(1) }

// add records a finished span under an id obtained from newID, so children
// can name their parent before the parent has ended.
func (r *recorder) add(id, parent, op int64, name string, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: start, EndNS: end})
	r.mu.Unlock()
}

// addBatch records one ServeSample. The program serializes these events.
func (r *recorder) addBatch(wait, exec time.Duration, rows int) {
	b := batchSample{arrivalNS: r.now(), waitNS: int64(wait), execNS: int64(exec), rows: rows}
	r.mu.Lock()
	r.batches = append(r.batches, b)
	r.mu.Unlock()
}

// attachBatches turns every recorded batch into a serve.queue and a
// serve.exec span ending at the event's arrival, under the span named
// parentName that was waiting for it: the latest-started unclaimed one that
// began before the queue wait did and was still open when execution began.
// A batch reports only its oldest request, so the other requests it
// coalesced keep no children. The children are clipped to the parent, as
// the event arrives a little after the pass really ended. It returns how
// many batches found no parent.
func (r *recorder) attachBatches(parentName string) (unmatched int) {
	var parents []span
	for _, s := range r.spans {
		if s.Name == parentName {
			parents = append(parents, s)
		}
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i].StartNS < parents[j].StartNS })
	claimed := make([]bool, len(parents))
	for _, b := range r.batches {
		execStart := b.arrivalNS - b.execNS
		queueStart := execStart - b.waitNS
		i := sort.Search(len(parents), func(i int) bool { return parents[i].StartNS > queueStart }) - 1
		for ; i >= 0; i-- {
			if !claimed[i] && parents[i].EndNS >= execStart {
				break
			}
		}
		if i < 0 {
			unmatched++
			continue
		}
		claimed[i] = true
		p := parents[i]
		end := min(b.arrivalNS, p.EndNS)
		r.spans = append(r.spans,
			span{ID: r.newID(), Parent: p.ID, Op: p.Op, Name: "serve.queue", StartNS: queueStart, EndNS: execStart},
			span{ID: r.newID(), Parent: p.ID, Op: p.Op, Name: "serve.exec", StartNS: execStart, EndNS: end})
	}
	return unmatched
}

// selfTimes returns, per span id, the span's duration minus the part of it
// that its children cover. Overlapping children are counted once and
// children are clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// validateSpans checks what the trace file promises: unique ids, every
// parent present, every child inside its parent.
func validateSpans(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			return fmt.Errorf("span id %d is zero or used twice", s.ID)
		}
		if s.EndNS < s.StartNS {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) names missing parent %d", s.ID, s.Name, s.Parent)
		}
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// spanStats groups durations and self times by span name, in nanoseconds
// times scale.
type spanStats struct {
	dur, self map[string][]float64
}

func summarize(spans []span, scale float64) spanStats {
	st := spanStats{dur: make(map[string][]float64), self: make(map[string][]float64)}
	self := selfTimes(spans)
	for _, s := range spans {
		st.dur[s.Name] = append(st.dur[s.Name], scale*float64(s.EndNS-s.StartNS))
		st.self[s.Name] = append(st.self[s.Name], scale*float64(self[s.ID]))
	}
	return st
}

// traceFile is the layout of <workload>.trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path, workload string, seed uint64, spans []span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
