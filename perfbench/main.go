// Command perfbench is the repository benchmark's measuring program:
// one process runs one workload once, in one mode, and prints its
// metrics. run.py builds it and runs it in fresh processes; see
// README.md for the workloads and what each metric means.
//
//	perfbench -workload pram-storm -seed 1 -seconds 10 -mode e2e
//	perfbench -workload pram-storm -seed 1 -seconds 10 -mode ledger [-spans spans.tsv.gz]
//
// Mode e2e measures the end-to-end metrics on an untraced cluster,
// plus the per-layer figures that need no tracing (message, fault,
// recovery and runtime counts). Mode ledger reruns the workload on a
// cluster whose transport spans every Send and handler, adds facade
// spans around each call the driver makes, and reports the per-layer
// times; the spans stay in memory until the run ends and can then be
// written out (-spans). Both modes finish with the workload's correctness gate and a
// short history-recording pass checked by the consistency witness; a
// gate failure makes the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// setupReps is how many times a run sets the workload up: it reports
// the median and drives the last one.
const setupReps = 15

// traceMaxOps bounds a traced run: spans stay in memory until the end.
const traceMaxOps = 300_000

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int64   `json:"samples,omitempty"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Error     string            `json:"error,omitempty"`
	order     []string
}

func (r *result) put(name string, v float64, unit string, samples int64) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func main() {
	name := flag.String("workload", "", "workload: pram-storm, cache-rw or adaptive-chaos")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured run length")
	mode := flag.String("mode", "e2e", "e2e (untraced) or ledger (traced)")
	spans := flag.String("spans", "", "ledger mode: write the spans, gzipped, to this file")
	flag.Parse()
	s, err := specByName(*name)
	if err != nil || (*mode != "e2e" && *mode != "ledger") || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload pram-storm|cache-rw|adaptive-chaos -seed N -seconds S -mode e2e|ledger")
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *mode == "e2e" {
		res = runE2E(s, *seed, d)
	} else {
		res = runLedger(s, *seed, d, *spans)
	}
	for _, n := range res.order {
		m := res.Metrics[n]
		if m.Samples > 0 {
			fmt.Printf("%-44s %16.6f %-7s n=%d\n", n, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Printf("%-44s %16.6f %s\n", n, m.Value, m.Unit)
		}
	}
	if res.Error != "" {
		fmt.Println("GATE FAILED:", res.Error)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

// medianOf returns the median of f over the windows of a run.
func medianOf(ws []window, f func(w window) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	slices.Sort(xs)
	if len(xs) == 0 {
		return 0
	}
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

// finish folds the runner's outcome into res.
func (res *result) finish(r *runner, extra error) {
	res.Attempted = r.attempted
	res.Failed = r.failed
	err := r.firstErr
	if err == nil {
		err = extra
	}
	res.Correct = err == nil && r.failed == 0
	if err != nil {
		res.Error = err.Error()
	}
}

// runE2E measures the untraced run.
func runE2E(s *spec, seed int64, d time.Duration) *result {
	res := newResult()
	setups := make([]float64, 0, setupReps)
	var r *runner
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.c.Close()
		}
		runtime.GC() // the previous cluster's garbage is not this setup's cost
		t0 := time.Now()
		var err error
		r, err = build(s, seed, nil, false)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			res.Error = err.Error()
			return res
		}
	}
	slices.Sort(setups)
	runtime.GC()
	m := r.runFor(d, 0)
	r.gate(m.stats)
	r.c.Close()

	ops := float64(r.attempted)
	st := m.stats
	var nPut, nGet int64
	for _, w := range r.windows {
		nPut += w.nPut
		nGet += w.nGet
	}
	med := func(f func(w window) float64) float64 { return medianOf(r.windows, f) }
	res.put("setup_s", setups[len(setups)/2], "s", int64(len(setups)))
	res.put("ops_per_s", med(func(w window) float64 { return float64(w.served) / w.wall.Seconds() }), "1/s", r.served)
	res.put("put_p50_us", med(func(w window) float64 { return float64(w.putP50) / 1e3 }), "us", nPut)
	res.put("put_p99_us", med(func(w window) float64 { return float64(w.putP99) / 1e3 }), "us", nPut)
	res.put("get_p50_us", med(func(w window) float64 { return float64(w.getP50) / 1e3 }), "us", nGet)
	res.put("get_p99_us", med(func(w window) float64 { return float64(w.getP99) / 1e3 }), "us", nGet)
	res.put("msgs_per_op", ratio(float64(st.Msgs), ops), "msg/op", 0)
	res.put("ctrl_bytes_per_op", ratio(float64(st.CtrlBytes), ops), "B/op", 0)
	res.put("alloc_bytes_per_op", med(func(w window) float64 { return w.allocPerOp }), "B/op", 0)
	res.put("served_frac", ratio(float64(r.served), ops), "share", r.attempted)
	res.put("error_frac", ratio(float64(r.denied+r.failed), ops), "share", r.attempted)
	res.put("denied_frac", ratio(float64(r.denied), ops), "share", r.attempted)
	res.put("vop_p50_ticks", med(func(w window) float64 { return float64(w.vopP50) }), "ticks", r.served)
	res.put("vop_p99_ticks", med(func(w window) float64 { return float64(w.vopP99) }), "ticks", r.served)
	res.put("reconfig_msgs_per_flip", ratio(float64(st.ReconfigMsgs), float64(m.epoch)), "msg", int64(m.epoch))
	res.put("recovery_msgs_per_rejoin", ratio(float64(st.RecoveryMsgs), float64(st.Recoveries)), "msg", int64(st.Recoveries))
	res.put("rejoin_ticks", ratio(float64(st.RecoveryTicks), float64(st.Recoveries)), "ticks", int64(st.Recoveries))

	// Per-layer figures that need no spans.
	dup := float64(st.Faults["dup"])
	res.put("netsim.reliable.retransmits_per_op", ratio(float64(st.Retransmits), ops), "msg/op", 0)
	res.put("netsim.reliable.acks_per_op", ratio(float64(st.AcksSent), ops), "msg/op", 0)
	res.put("netsim.reliable.dups_suppressed_per_op", ratio(float64(st.DupsSuppressed), ops), "msg/op", 0)
	res.put("netsim.reliable.abandoned", float64(st.Abandoned), "count", 0)
	res.put("netsim.reliable.useful_share", ratio(float64(st.Msgs-st.Retransmits-st.AcksSent)-dup, float64(st.Msgs)), "share", st.Msgs)
	res.put("netsim.faults.drops_per_op", ratio(float64(st.Faults["drop"]), ops), "msg/op", 0)
	res.put("netsim.faults.dups_per_op", ratio(dup, ops), "msg/op", 0)
	res.put("netsim.vlat.delay_mean_ticks", float64(st.DelayMean.Nanoseconds()), "ticks", st.DelaySamples)
	res.put("netsim.vlat.delay_p99_ticks", float64(st.DelayP99.Nanoseconds()), "ticks", st.DelaySamples)
	res.put("netsim.vlat.ticks_per_op", ratio(float64(m.clockTicks), ops), "ticks", 0)
	res.put("policy.flip_share", ratio(float64(r.flips), float64(r.ticks)), "share", int64(r.ticks))
	for _, k := range epochKinds {
		res.put("mcs.reconfig.msgs_per_flip."+k, ratio(float64(st.MsgsByKind[k]), float64(m.epoch)), "msg", int64(m.epoch))
	}
	res.put("go.gc_cycles_per_kop", ratio(float64(m.gcCycles)*1000, ops), "count", 0)
	res.put("go.alloc_bytes_per_msg", ratio(float64(m.allocBytes), float64(st.Msgs)), "B/msg", 0)

	wd, wops, verr := verify(s, seed)
	if verr == nil {
		res.put("check.witness_ns_per_op", ratio(float64(wd.Nanoseconds()), float64(wops)), "ns", wops)
	}
	res.finish(r, verr)
	return res
}

// runLedger measures the traced run, and writes its spans to
// spansPath unless that is empty.
func runLedger(s *spec, seed int64, d time.Duration, spansPath string) *result {
	res := newResult()
	tr := newTracer(s.cfg(seed).Placement.NumNodes(), !s.chaos)
	r, err := build(s, seed, tr, false)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	runtime.GC()
	m := r.runFor(d, traceMaxOps)
	r.gate(m.stats)
	r.c.Close()

	l := tr.digest()
	ops := float64(r.attempted)
	wall := float64(m.wall.Nanoseconds())
	res.put("trace.ops_per_s", float64(r.served)/m.wall.Seconds(), "1/s", r.served)
	res.put("partialdsm.put_self_ns", ratio(float64(l.self[spanPut]), float64(l.count[spanPut])), "ns", l.count[spanPut])
	res.put("partialdsm.get_self_ns", ratio(float64(l.self[spanGet]), float64(l.count[spanGet])), "ns", l.count[spanGet])
	nq := l.count[spanQuiesce] + l.count[spanRejoinQuiesce]
	tq := l.total[spanQuiesce] + l.total[spanRejoinQuiesce]
	res.put("partialdsm.quiesce_ns", ratio(float64(tq), float64(nq)), "ns", nq)
	res.put("partialdsm.quiesce_share", ratio(float64(tq), wall), "share", nq)
	na := l.count[spanApply]
	res.put("mcs.apply_per_op", ratio(float64(na), ops), "count", na)
	res.put("mcs.apply_self_ns", ratio(float64(l.self[spanApply]), float64(na)), "ns", na)
	res.put("mcs.apply_self_ns_p99", float64(quantile(l.applySelf, 0.99)), "ns", na)
	res.put("mcs.apply_busy_share", ratio(float64(l.self[spanApply]), wall), "share", na)
	for i, k := range msgKinds {
		res.put("mcs.apply_self_ns."+k, ratio(float64(l.kindApplySelf[i]), float64(l.kindApplyN[i])), "ns", l.kindApplyN[i])
	}
	ns := l.count[spanSend]
	sendNs := ratio(float64(l.total[spanSend]), float64(ns))
	res.put("netsim.send_per_op", ratio(float64(ns), ops), "count", ns)
	res.put("netsim.send_ns", sendNs, "ns", ns)
	res.put("netsim.queue_wait_ns_p50", float64(quantile(l.waits, 0.50)), "ns", int64(len(l.waits)))
	res.put("netsim.queue_wait_ns_p99", float64(quantile(l.waits, 0.99)), "ns", int64(len(l.waits)))
	recNs, recs := tr.replayCollector()
	res.put("metrics.record_ns", recNs, "ns", int64(recs))
	res.put("metrics.record_share", ratio(recNs, sendNs), "share", int64(recs))
	res.put("policy.tick_ns", ratio(float64(l.total[spanTick]), float64(l.count[spanTick])), "ns", l.count[spanTick])
	res.put("mcs.recovery.rejoin_quiesce_ns", ratio(float64(l.total[spanRejoinQuiesce]), float64(l.count[spanRejoinQuiesce])), "ns", l.count[spanRejoinQuiesce])
	_, _, verr := verify(s, seed)
	if verr == nil && l.otherKinds > 0 {
		verr = fmt.Errorf("%d spans carry a message kind the ledger does not list", l.otherKinds)
	}
	if spansPath != "" {
		if err := tr.writeSpans(spansPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	res.finish(r, verr)
	return res
}
