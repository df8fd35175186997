package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"time"

	"partialdsm"
	"partialdsm/internal/mcs"
	"partialdsm/internal/netsim"
	"partialdsm/internal/workload"
)

// runner is the single closed-loop driver goroutine of one cluster: it
// issues the next operation only after the previous one returned.
type runner struct {
	s       *spec
	c       *partialdsm.Cluster
	net     netsim.Transport // the engine under the registered kind
	tr      *tracer          // nil when untraced
	tape    []op
	handles []*partialdsm.NodeHandle
	names   []string
	pdrv    *partialdsm.PolicyDriver
	val     []byte
	dst     []byte
	bottom  []byte
	writes  uint64 // run-wide write counter, stamped into every value

	attempted, served, denied, failed int64
	crashes, ticks, flips             int
	phase                             int // phases started
	quietVictim                       int // node whose ops are skipped until its rejoin; -1 if none
	firstErr                          error

	// Per-op samples of the current measurement window, reused from
	// one window to the next.
	putNs, getNs []int32  // wall latency per served op, ns
	vopTicks     []uint32 // virtual-clock latency per served op
	ownAlloc     uint64   // bytes the sample buffers allocated: the driver's, not the system's
	windows      []window
	mark         windowMark
}

// window is one slice of a timed run, summarised when it closes.
type window struct {
	wall                           time.Duration
	served                         int64
	nPut, nGet                     int64
	putP50, putP99, getP50, getP99 int32
	vopP50, vopP99                 uint32
	allocPerOp                     float64 // the system's bytes allocated per attempted op
}

// windowMark is where the current window started, in the counters
// closeWindow differences.
type windowMark struct {
	attempted, served    int64
	totalAlloc, ownAlloc uint64
}

// build constructs a cluster for s, registering a fresh transport
// kind (spanned when tr is non-nil; recording the execution history
// when history is set), and prepares the driver.
func build(s *spec, seed int64, tr *tracer, history bool) (*runner, error) {
	cfg := s.cfg(seed)
	cfg.DisableTrace = !history
	r := &runner{s: s, tr: tr, quietVictim: -1, bottom: partialdsm.BottomValue()}
	cfg.Transport = partialdsm.Transport(registerKind(s.engine, tr, &r.net))
	c, err := partialdsm.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: build cluster: %w", s.name, err)
	}
	r.c = c
	r.tape = s.tape(seed)
	r.names = workload.VarNames(s.vars)
	for i := 0; i < c.NumNodes(); i++ {
		r.handles = append(r.handles, c.Node(i))
	}
	if s.chaos { // E22's policy settings, decided at every block
		r.pdrv = c.NewPolicyDriver(&partialdsm.GreedyPolicy{MinTotal: 20, HotThreshold: 8, IdleThreshold: 1}, 1)
	}
	r.val = make([]byte, valueLen)
	for i := range r.val {
		r.val[i] = byte(i)
	}
	r.dst = make([]byte, 0, valueLen)
	return r, nil
}

// fail records the first error that fails the run's correctness gate.
func (r *runner) fail(err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// stamp opens a facade span: the start time and the OS thread the
// driver runs on when the call begins.
type stamp struct {
	start int64
	tid   int32
}

func (r *runner) stamp() stamp {
	if r.tr == nil {
		return stamp{}
	}
	return stamp{start: r.tr.now(), tid: threadID()}
}

// span records a facade span opened by stamp.
func (r *runner) span(typ uint8, st stamp) {
	if r.tr != nil {
		r.tr.record(span{start: st.start, dur: r.tr.now() - st.start, wait: -1, tid: st.tid, typ: typ})
	}
}

// do issues one operation and checks what it returned.
func (r *runner) do(o op) {
	if int(o.node) == r.quietVictim {
		return // the crashed node stays quiet until it has rejoined
	}
	r.attempted++
	h := r.handles[o.node]
	x := r.names[o.vi]
	var err error
	var v []byte
	clk := r.net.Clock()
	v0 := clk.Now()
	sp := r.stamp()
	t0 := time.Now()
	if o.put {
		r.writes++
		binary.BigEndian.PutUint64(r.val, r.writes)
		binary.BigEndian.PutUint16(r.val[8:], uint16(o.vi))
		binary.BigEndian.PutUint16(r.val[10:], uint16(o.node))
		err = h.Put(x, r.val)
	} else if r.s.getInto {
		v, err = h.GetInto(x, r.dst)
	} else {
		v, err = h.Get(x)
	}
	d := time.Since(t0)
	vt := clk.Now() - v0
	if o.put {
		r.span(spanPut, sp)
	} else {
		r.span(spanGet, sp)
	}
	switch {
	case err == nil:
	case errors.Is(err, mcs.ErrNotReplicated) && r.s.chaos:
		r.denied++
		return
	default:
		r.failed++
		r.fail(fmt.Errorf("node %d %s %s: %w", o.node, opName(o.put), x, err))
		return
	}
	if !o.put && !bytes.Equal(v, r.bottom) && (len(v) != valueLen || binary.BigEndian.Uint16(v[8:]) != uint16(o.vi)) {
		r.failed++
		r.fail(fmt.Errorf("node %d read %s: got a %d-byte value no write to %s stored", o.node, x, len(v), x))
		return
	}
	r.served++
	ns := int32(min64(d.Nanoseconds(), 1<<31-1))
	if o.put {
		r.putNs = grow(r, r.putNs, ns)
	} else {
		r.getNs = grow(r, r.getNs, ns)
	}
	r.vopTicks = grow(r, r.vopTicks, uint32(min64(int64(vt), 1<<32-1)))
}

// grow appends v to buf, charging any reallocation to ownAlloc.
func grow[T int32 | uint32](r *runner, buf []T, v T) []T {
	c := cap(buf)
	buf = append(buf, v)
	if cap(buf) != c {
		r.ownAlloc += uint64(cap(buf)) * 4
	}
	return buf
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func opName(put bool) string {
	if put {
		return "Put"
	}
	return "Get"
}

// quiesce drains the network; rejoin marks the first Quiesce after a
// crash window opened, which fires the window and waits the recovery.
func (r *runner) quiesce(rejoin bool) {
	sp := r.stamp()
	err := r.c.Quiesce()
	if rejoin {
		r.span(spanRejoinQuiesce, sp)
	} else {
		r.span(spanQuiesce, sp)
	}
	if err != nil {
		r.fail(fmt.Errorf("quiesce: %w", err))
	}
}

// unit runs one pacing unit of the tape: a phase of the chaos
// workload, the whole tape otherwise.
func (r *runner) unit() {
	ops := r.tape
	if r.s.chaos {
		p := r.phase % (len(r.tape) / chaosPhaseOps)
		ops = r.tape[p*chaosPhaseOps : (p+1)*chaosPhaseOps]
		victim := r.phase % r.c.NumNodes()
		if err := r.c.CrashNodeFor(victim, chaosCrashTicks); err != nil {
			r.fail(fmt.Errorf("crash node %d: %w", victim, err))
		}
		r.crashes++
		r.quietVictim = victim
	}
	r.phase++
	for i, o := range ops {
		r.do(o)
		if r.s.blockOps > 0 && (i+1)%r.s.blockOps == 0 {
			r.quiesce(r.quietVictim >= 0)
			r.quietVictim = -1
			if r.pdrv != nil {
				sp := r.stamp()
				flipped, err := r.pdrv.Tick()
				r.span(spanTick, sp)
				r.ticks++
				if flipped {
					r.flips++
				}
				if err != nil {
					r.fail(fmt.Errorf("policy tick: %w", err))
				}
			}
		}
		if r.firstErr != nil {
			return
		}
	}
}

// measured is what one timed run leaves behind.
type measured struct {
	wall       time.Duration // summed over the windows
	clockTicks uint64
	allocBytes uint64 // the system's: the sample buffers' share is taken out
	gcCycles   uint32
	stats      partialdsm.Stats
	epoch      uint64
}

// windows is how many windows a timed run is cut into; the end-to-end
// figures are medians over them, so a burst of interference from
// outside the process moves at most a window or two.
const windows = 10

// openWindow marks the start of a window.
func (r *runner) openWindow() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mark = windowMark{attempted: r.attempted, served: r.served, totalAlloc: ms.TotalAlloc, ownAlloc: r.ownAlloc}
}

// closeWindow summarises the current window and empties the sample
// buffers for the next one.
func (r *runner) closeWindow(wall time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sys := ms.TotalAlloc - r.mark.totalAlloc - (r.ownAlloc - r.mark.ownAlloc)
	r.windows = append(r.windows, window{
		wall: wall, served: r.served - r.mark.served,
		nPut: int64(len(r.putNs)), nGet: int64(len(r.getNs)),
		putP50: quantile(r.putNs, 0.50), putP99: quantile(r.putNs, 0.99),
		getP50: quantile(r.getNs, 0.50), getP99: quantile(r.getNs, 0.99),
		vopP50: quantile(r.vopTicks, 0.50), vopP99: quantile(r.vopTicks, 0.99),
		allocPerOp: ratio(float64(sys), float64(r.attempted-r.mark.attempted)),
	})
	r.putNs, r.getNs, r.vopTicks = r.putNs[:0], r.getNs[:0], r.vopTicks[:0]
}

// runFor replays tape units for `windows` windows of d/windows each
// (stopping early once maxOps ops were attempted, when positive), then
// drains the network inside the last window. Summarising a window is
// not timed.
func (r *runner) runFor(d time.Duration, maxOps int64) measured {
	var m measured
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	clk0 := r.net.Clock().Now()
	for r.firstErr == nil {
		r.openWindow()
		start := time.Now()
		last := len(r.windows) == windows-1
		for r.firstErr == nil {
			r.unit()
			if maxOps > 0 && r.attempted >= maxOps {
				last = true
				break
			}
			if time.Since(start) >= d/windows {
				break
			}
		}
		if last || r.firstErr != nil {
			r.quiesce(false)
		}
		wall := time.Since(start)
		m.wall += wall
		r.closeWindow(wall)
		if last {
			break
		}
	}
	m.clockTicks = r.net.Clock().Now() - clk0
	runtime.ReadMemStats(&ms1)
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc - r.ownAlloc
	m.gcCycles = ms1.NumGC - ms0.NumGC
	m.stats = r.c.Stats()
	m.epoch = r.c.Epoch()
	return m
}

// gate runs the workload's end-of-run correctness checks on a
// quiesced cluster.
func (r *runner) gate(st partialdsm.Stats) {
	if err := r.c.Err(); err != nil {
		r.fail(err)
	}
	if r.s.checkEfficiency {
		if err := r.c.VerifyEfficiency(); err != nil {
			r.fail(err)
		}
	}
	if r.s.checkReplicas {
		for _, x := range r.names {
			var want []byte
			for i, node := range r.c.Clique(x) {
				v, err := r.handles[node].Get(x)
				if err != nil {
					r.fail(fmt.Errorf("replica check: node %d Get %s: %w", node, x, err))
					return
				}
				if i == 0 {
					want = v
				} else if !bytes.Equal(v, want) {
					r.fail(fmt.Errorf("replica check: %s differs between node %d and node %d", x, node, r.c.Clique(x)[0]))
					return
				}
			}
		}
	}
	if r.s.chaos {
		if st.Recoveries != r.crashes {
			r.fail(fmt.Errorf("%d crash windows but %d completed rejoins", r.crashes, st.Recoveries))
		}
		if st.Abandoned != 0 {
			r.fail(fmt.Errorf("retransmit layer abandoned %d frames", st.Abandoned))
		}
	}
}

// verify is the short verification pass every run makes: the same
// workload and seed on a fresh history-recording cluster, checked with
// the consistency witness and the workload's end-of-run gate. It
// returns the witness check's wall time and the ops it covered.
func verify(s *spec, seed int64) (time.Duration, int64, error) {
	r, err := build(s, seed, nil, true)
	if err != nil {
		return 0, 0, err
	}
	defer r.c.Close()
	r.writes = 1 << 40 // values distinct from the timed run's too
	for u := 0; u < s.verifyUnits && r.firstErr == nil; u++ {
		r.unit()
	}
	r.quiesce(false)
	if r.firstErr != nil {
		return 0, 0, fmt.Errorf("verification pass: %w", r.firstErr)
	}
	t0 := time.Now()
	werr := r.c.VerifyWitness()
	wd := time.Since(t0)
	if werr != nil {
		return 0, 0, fmt.Errorf("verification pass: witness: %w", werr)
	}
	r.gate(r.c.Stats())
	if r.firstErr != nil {
		return 0, 0, fmt.Errorf("verification pass: %w", r.firstErr)
	}
	return wd, r.attempted, nil
}
