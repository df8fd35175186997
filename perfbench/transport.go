package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"partialdsm/internal/mcs"
	"partialdsm/internal/mcs/atomicreg"
	"partialdsm/internal/mcs/cachepart"
	"partialdsm/internal/mcs/prampart"
	"partialdsm/internal/netsim"
)

// The benchmark reaches the engine through transport kinds it
// registers itself (netsim.Register), so the cluster under test is
// built by the ordinary partialdsm.New path. An untraced cluster gets
// a pass-through kind: its factory returns the unmodified engine and
// only keeps a reference to it, which is how the driver reads the
// virtual clock. A traced cluster gets a wrapping kind whose Send and
// handlers are spanned (see tracer); the wrapper embeds the engine, so
// the optional interfaces Reliable, CrashNodeFor and Quiesce rely on
// (LinkController, FaultController, BacklogInspector, PairMonitor) are
// promoted unchanged.

// kindSeq numbers the one-off transport kinds, one per cluster built.
var kindSeq atomic.Int64

// registerKind registers a fresh transport kind over the named engine
// and returns its name. The factory stores the transport it builds in
// *built; with a non-nil tracer the engine is wrapped.
func registerKind(engine string, tr *tracer, built *netsim.Transport) string {
	name := fmt.Sprintf("perfbench-%s-%d", engine, kindSeq.Add(1))
	netsim.Register(name, func(n int, opts netsim.Options) netsim.Transport {
		var t netsim.Transport
		switch engine {
		case netsim.KindSharded:
			e := netsim.NewSharded(n, opts)
			t = e
			if tr != nil {
				t = tracedSharded{e, tr}
			}
		default:
			e := netsim.NewNetwork(n, opts)
			t = e
			if tr != nil {
				t = tracedNetwork{e, tr}
			}
		}
		*built = t
		return t
	})
	return name
}

// tracedSharded spans the sharded engine's Send and handlers.
type tracedSharded struct {
	*netsim.Sharded
	tr *tracer
}

func (w tracedSharded) Send(m netsim.Message) { w.tr.send(m, w.Sharded.Send) }

func (w tracedSharded) SetHandler(node int, h netsim.Handler) {
	w.Sharded.SetHandler(node, w.tr.handler(h))
}

// tracedNetwork spans the classic engine's Send and handlers.
type tracedNetwork struct {
	*netsim.Network
	tr *tracer
}

func (w tracedNetwork) Send(m netsim.Message) { w.tr.send(m, w.Network.Send) }

func (w tracedNetwork) SetHandler(node int, h netsim.Handler) {
	w.Network.SetHandler(node, w.tr.handler(h))
}

// relAckKind is the wire kind of netsim.Reliable's acks (unexported
// there).
const relAckKind = "rel.ack"

// msgKinds lists every message kind the three workloads can put on the
// wire; the traced ledger reports per-kind figures for each of them,
// and kindIndex maps anything else to kindOther.
var msgKinds = []string{
	prampart.KindUpdate,
	cachepart.KindRequest, cachepart.KindUpdate,
	atomicreg.KindWriteReq, atomicreg.KindWriteAck,
	atomicreg.KindReadReq, atomicreg.KindReadResp, atomicreg.KindReadBounce,
	mcs.KindEpochPropose, mcs.KindEpochFence, mcs.KindEpochMigReq,
	mcs.KindEpochMigResp, mcs.KindEpochReady, mcs.KindEpochCommit,
	mcs.KindSnapReq, mcs.KindSnapResp,
	relAckKind,
}

// epochKinds are the epoch reconfiguration protocol's message kinds.
var epochKinds = []string{
	mcs.KindEpochPropose, mcs.KindEpochFence, mcs.KindEpochMigReq,
	mcs.KindEpochMigResp, mcs.KindEpochReady, mcs.KindEpochCommit,
}

// kindOther is the index of kinds outside msgKinds.
var kindOther = uint8(len(msgKinds))

// kindIx is read-only after init, so handlers may read it
// concurrently.
var kindIx = func() map[string]uint8 {
	m := make(map[string]uint8, len(msgKinds))
	for i, k := range msgKinds {
		m[k] = uint8(i)
	}
	return m
}()

func kindIndex(k string) uint8 {
	if i, ok := kindIx[k]; ok {
		return i
	}
	return kindOther
}

// Span types.
const (
	spanPut uint8 = iota
	spanGet
	spanQuiesce
	spanRejoinQuiesce // the first Quiesce after a crash window opened
	spanTick
	spanSend
	spanApply
	numSpanTypes
)

// span is one timed call at a layer boundary, on one OS thread.
type span struct {
	start int64 // ns since tracer.base
	dur   int64
	wait  int64 // apply spans on FIFO-matched runs: ns since the matching Send; else -1
	tid   int32
	typ   uint8
	kind  uint8 // message kind index (send/apply)
}

// msgRec is one Send as the metrics collector saw it, kept for the
// collector replay.
type msgRec struct {
	ctrl, data int32
	vars       int32 // index into the shard's interned variable lists
	from, to   int16
	kind       uint8
}

// shard is one lock-striped span and message buffer; a thread always
// records into the shard its id hashes to, so the stripes are nearly
// uncontended.
type shard struct {
	mu       sync.Mutex
	spans    []span
	msgs     []msgRec
	varIx    map[string]int32
	varLists [][]string
	_        [64]byte // keep neighbouring shards off one cache line
}

// pairQueue holds the send times of one ordered pair's messages still
// in flight, in FIFO order.
type pairQueue struct {
	mu   sync.Mutex
	sent []int64
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	base   time.Time
	shards [32]shard
	n      int
	pairs  []pairQueue // nil unless queue waits are matched (fault-free FIFO runs)
}

func newTracer(nodes int, matchQueues bool) *tracer {
	t := &tracer{base: time.Now(), n: nodes}
	for i := range t.shards {
		t.shards[i].varIx = make(map[string]int32)
	}
	if matchQueues {
		t.pairs = make([]pairQueue, nodes*nodes)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(s span) {
	sh := &t.shards[uint32(s.tid)%uint32(len(t.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// send spans one inner Send: the collector's RecordMessage, the fault
// draw and the enqueue all happen inside it.
func (t *tracer) send(m netsim.Message, inner func(netsim.Message)) {
	tid := threadID()
	var start, end int64
	if t.pairs != nil {
		// The pair lock spans the inner Send, so the order of sent
		// stamps is the order the engine enqueued the messages in —
		// the order it delivers them.
		p := &t.pairs[m.From*t.n+m.To]
		p.mu.Lock()
		start = t.now()
		p.sent = append(p.sent, start)
		inner(m)
		end = t.now()
		p.mu.Unlock()
	} else {
		start = t.now()
		inner(m)
		end = t.now()
	}
	k := kindIndex(m.Kind)
	sh := &t.shards[uint32(tid)%uint32(len(t.shards))]
	sh.mu.Lock()
	sh.spans = append(sh.spans, span{start: start, dur: end - start, wait: -1, tid: tid, typ: spanSend, kind: k})
	sh.msgs = append(sh.msgs, msgRec{
		ctrl: int32(m.CtrlBytes), data: int32(m.DataBytes), vars: sh.intern(m.Vars),
		from: int16(m.From), to: int16(m.To), kind: k,
	})
	sh.mu.Unlock()
}

// intern returns the index of a copy of vars (the message's slice may
// be recycled with its frame). Called with sh.mu held.
func (sh *shard) intern(vars []string) int32 {
	key := ""
	switch len(vars) {
	case 0:
	case 1:
		key = vars[0]
	default:
		for i, v := range vars {
			if i > 0 {
				key += "\x00"
			}
			key += v
		}
	}
	if i, ok := sh.varIx[key]; ok {
		return i
	}
	i := int32(len(sh.varLists))
	sh.varLists = append(sh.varLists, append([]string(nil), vars...))
	sh.varIx[key] = i
	return i
}

// handler spans one delivery: with netsim.Reliable in the stack the
// wrapped handler is the retransmit layer's dispatcher, which calls the
// protocol's handler inside it.
func (t *tracer) handler(h netsim.Handler) netsim.Handler {
	return func(m netsim.Message) {
		start := t.now()
		wait := int64(-1)
		if t.pairs != nil {
			p := &t.pairs[m.From*t.n+m.To]
			p.mu.Lock()
			if len(p.sent) > 0 {
				wait = start - p.sent[0]
				p.sent = p.sent[1:]
			}
			p.mu.Unlock()
		}
		tid := threadID()
		h(m)
		t.record(span{start: start, dur: t.now() - start, wait: wait, tid: tid, typ: spanApply, kind: kindIndex(m.Kind)})
	}
}
