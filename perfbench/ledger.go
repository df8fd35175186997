package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"partialdsm/internal/metrics"
)

// quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place; 0 for an empty slice.
func quantile[T int32 | int64 | uint32](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := int(q*float64(len(xs))+0.999999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ledger is the per-layer digest of a traced run's spans.
type ledger struct {
	count [numSpanTypes]int64
	total [numSpanTypes]int64 // summed span durations, ns
	self  [numSpanTypes]int64 // summed self times, ns

	applySelf     []int64 // per apply span, ns
	kindApplyN    []int64 // per message kind index
	kindApplySelf []int64
	waits         []int64 // send→handler queue waits, ns
	otherKinds    int64   // spans of kinds outside msgKinds
}

// digest nests the spans of each OS thread — a span's parent is the
// innermost earlier span on the same thread that encloses it — and
// sums durations and self times per span type. A span's self time is
// its duration minus its child Send spans: a goroutine that parks
// inside a span (a Put waiting for its round trip) lets other
// goroutines run on its thread, and their handler spans are not the
// parked call's work to subtract; Sends inside those handlers nest in
// the handlers, the innermost enclosing spans.
func (t *tracer) digest() *ledger {
	l := &ledger{
		kindApplyN:    make([]int64, len(msgKinds)+1),
		kindApplySelf: make([]int64, len(msgKinds)+1),
	}
	byThread := make(map[int32][]span)
	for i := range t.shards {
		for _, s := range t.shards[i].spans {
			byThread[s.tid] = append(byThread[s.tid], s)
		}
	}
	type open struct {
		end int64
		idx int
	}
	for _, spans := range byThread {
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].dur > spans[j].dur
		})
		child := make([]int64, len(spans))
		var stack []open
		for i, s := range spans {
			end := s.start + s.dur
			for len(stack) > 0 && stack[len(stack)-1].end < end {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && s.typ == spanSend {
				child[stack[len(stack)-1].idx] += s.dur
			}
			stack = append(stack, open{end: end, idx: i})
		}
		for i, s := range spans {
			self := s.dur - child[i]
			l.count[s.typ]++
			l.total[s.typ] += s.dur
			l.self[s.typ] += self
			switch s.typ {
			case spanApply:
				l.applySelf = append(l.applySelf, self)
				l.kindApplyN[s.kind]++
				l.kindApplySelf[s.kind] += self
				if s.wait >= 0 {
					l.waits = append(l.waits, s.wait)
				}
			case spanSend:
			default:
				continue
			}
			if s.kind == kindOther {
				l.otherKinds++
			}
		}
	}
	return l
}

// replayCollector feeds the recorded message stream into a fresh
// metrics.Collector and returns the mean wall time of one
// RecordMessage call. The stream is replayed twice and the second,
// warm pass is timed: the first populates the collector's maps the way
// a long run's steady state has them populated.
func (t *tracer) replayCollector() (nsPerRecord float64, records int) {
	col := metrics.NewCollector()
	var elapsed time.Duration
	for pass := 0; pass < 2; pass++ {
		start := time.Now()
		for i := range t.shards {
			sh := &t.shards[i]
			for _, m := range sh.msgs {
				kind := "other"
				if m.kind != kindOther {
					kind = msgKinds[m.kind]
				}
				col.RecordMessage(kind, int(m.from), int(m.to), int(m.ctrl), int(m.data), sh.varLists[m.vars])
			}
			if pass == 1 {
				records += len(sh.msgs)
			}
		}
		elapsed = time.Since(start)
	}
	return ratio(float64(elapsed.Nanoseconds()), float64(records)), records
}

var spanNames = [numSpanTypes]string{"put", "get", "quiesce", "rejoin_quiesce", "tick", "send", "apply"}

// writeSpans writes every span as a gzipped tab-separated line: OS
// thread, span type, message kind, start and duration in ns since the
// tracer started, and the queue wait in ns (-1 where not matched).
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "tid\ttype\tkind\tstart_ns\tdur_ns\twait_ns")
	for i := range t.shards {
		for _, s := range t.shards[i].spans {
			kind := "-"
			switch {
			case s.typ != spanSend && s.typ != spanApply:
			case s.kind == kindOther:
				kind = "other"
			default:
				kind = msgKinds[s.kind]
			}
			fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\t%d\n", s.tid, spanNames[s.typ], kind, s.start, s.dur, s.wait)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
