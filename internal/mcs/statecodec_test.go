package mcs_test

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"partialdsm/internal/mcs"
	"partialdsm/internal/mcs/atomicreg"
	"partialdsm/internal/mcs/cachepart"
	"partialdsm/internal/mcs/causalfull"
	"partialdsm/internal/mcs/causalpart"
	"partialdsm/internal/mcs/prampart"
	"partialdsm/internal/mcs/seqcons"
	"partialdsm/internal/mcs/slowpart"
	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
)

// stubNet is a transport that delivers nothing: it records every send
// and hands the installed handlers to the test, which injects frames
// synchronously. Its clock never advances, so no retry timer fires.
type stubNet struct {
	n        int
	handlers []netsim.Handler
	mu       sync.Mutex
	sent     []netsim.Message
}

func newStubNet(n int) *stubNet { return &stubNet{n: n, handlers: make([]netsim.Handler, n)} }

func (s *stubNet) NumNodes() int                         { return s.n }
func (s *stubNet) SetHandler(node int, h netsim.Handler) { s.handlers[node] = h }
func (s *stubNet) Quiesce()                              {}
func (s *stubNet) Close()                                {}
func (s *stubNet) Clock() netsim.Clock                   { return stubClock{} }
func (s *stubNet) Send(m netsim.Message) {
	s.mu.Lock()
	s.sent = append(s.sent, m)
	s.mu.Unlock()
}

type stubClock struct{}

func (stubClock) Now() uint64                      { return 0 }
func (stubClock) After(d uint64, fn func()) uint64 { return d }
func (stubClock) Schedule(tick uint64, fn func())  {}
func (stubClock) AdvanceIdle()                     {}

// codecProtocol is one protocol under test: how to build its nodes and
// how to encode one rejoin-snapshot entry in its wire layout.
type codecProtocol struct {
	name  string
	build func(mcs.Config) ([]mcs.Node, error)
	// header writes the rejoin body's leading metadata (before the
	// entry count); entry writes one (writer, VarID, value) entry.
	header func(e *mcs.Enc)
	entry  func(e *mcs.Enc, writer, xi int, v []byte)
	// writerOnWire is false when rejoin entries carry no writer (the
	// atomic register's entries are the sender's own writes).
	writerOnWire bool
	// migrates is false when the protocol never requests transfers
	// (every node holds every variable's state).
	migrates bool
}

func nodesOf[T mcs.Node](ns []T, err error) ([]mcs.Node, error) {
	out := make([]mcs.Node, len(ns))
	for i, n := range ns {
		out[i] = n
	}
	return out, err
}

const numStubNodes = 3

// tagged is the (writer, wseq, VarVal) entry most protocols share.
func tagged(e *mcs.Enc, writer, xi int, v []byte) {
	e.U32(uint32(writer)).U32(1).VarVal(xi, v)
}

var codecProtocols = []codecProtocol{
	{name: "pram", build: func(c mcs.Config) ([]mcs.Node, error) { return nodesOf(prampart.New(c)) },
		header: func(*mcs.Enc) {}, entry: tagged, writerOnWire: true, migrates: true},
	{name: "slow", build: func(c mcs.Config) ([]mcs.Node, error) { return nodesOf(slowpart.New(c)) },
		header: func(*mcs.Enc) {}, entry: func(e *mcs.Enc, w, xi int, v []byte) {
			e.U32(uint32(w)).U32(1).U32(0).VarVal(xi, v) // no receive cursors
		}, writerOnWire: true, migrates: true},
	{name: "causal-full", build: func(c mcs.Config) ([]mcs.Node, error) { return nodesOf(causalfull.New(c)) },
		header: func(e *mcs.Enc) { e.U32Slice(make([]uint32, numStubNodes)) }, entry: tagged, writerOnWire: true},
	{name: "causal-partial", build: func(c mcs.Config) ([]mcs.Node, error) {
		return nodesOf(causalpart.New(c, causalpart.ModeBroadcast))
	}, header: func(e *mcs.Enc) { e.U32(0) }, entry: tagged, writerOnWire: true, migrates: true},
	{name: "causal-hoop-aware", build: func(c mcs.Config) ([]mcs.Node, error) {
		return nodesOf(causalpart.New(c, causalpart.ModeHoopAware))
	}, header: func(e *mcs.Enc) { e.U32(0) }, entry: tagged, writerOnWire: true, migrates: true},
	{name: "sequential", build: func(c mcs.Config) ([]mcs.Node, error) { return nodesOf(seqcons.New(c)) },
		header: func(e *mcs.Enc) { e.U32(1) }, entry: tagged, writerOnWire: true},
	{name: "cache", build: func(c mcs.Config) ([]mcs.Node, error) { return nodesOf(cachepart.New(c)) },
		header: func(*mcs.Enc) {}, entry: func(e *mcs.Enc, w, xi int, v []byte) {
			e.U32(1).U32(uint32(w)).U32(1).VarVal(xi, v) // apply cursor 1
		}, writerOnWire: true, migrates: true},
	{name: "atomic", build: func(c mcs.Config) ([]mcs.Node, error) { return nodesOf(atomicreg.New(c)) },
		header: func(e *mcs.Enc) { e.U32(0) }, entry: func(e *mcs.Enc, _, xi int, v []byte) {
			e.U32(1).VarVal(xi, v)
		}, migrates: true},
}

// codecRig is one protocol's three nodes on a stub network with a
// counting fault sink. Node 0 is the node under test; node 1 shares
// variable a with it (a is owned by node 0), node 2 shares only b with
// node 1.
type codecRig struct {
	t      *testing.T
	net    *stubNet
	nodes  []mcs.Node
	ix     *sharegraph.Index
	faults []error
}

func newCodecRig(t *testing.T, p codecProtocol) *codecRig {
	t.Helper()
	pl := sharegraph.NewPlacement(numStubNodes).Assign(0, "a").Assign(1, "a", "b").Assign(2, "b")
	r := &codecRig{t: t, net: newStubNet(numStubNodes), ix: pl.Index()}
	nodes, err := p.build(mcs.Config{
		Net: r.net, Placement: pl,
		OnFault: func(node int, err error) { r.faults = append(r.faults, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.nodes = nodes
	return r
}

// inject delivers one frame to node 0.
func (r *codecRig) inject(from int, kind string, payload []byte) {
	r.net.handlers[0](netsim.Message{From: from, To: 0, Kind: kind, Payload: payload})
}

// rejoin crashes and restarts node 0, returning its recovery epoch.
func (r *codecRig) rejoin() uint32 {
	r.t.Helper()
	cr := r.nodes[0].(mcs.CrashRestarter)
	cr.CrashRestart()
	cr.Recover()
	for _, m := range r.net.sent {
		if m.Kind == mcs.KindSnapReq && m.From == 0 {
			return binary.BigEndian.Uint32(m.Payload)
		}
	}
	r.t.Fatal("node 0 sent no snapshot request")
	return 0
}

// snapshot builds a rejoin response: epoch, the protocol's header, one
// entry.
func snapshot(p codecProtocol, epoch uint32, writer, xi int, v []byte) []byte {
	var e mcs.Enc
	e.U32(epoch)
	p.header(&e)
	e.U32(1)
	p.entry(&e, writer, xi, v)
	return e.Bytes()
}

// startMigration makes node 0 coordinate an attempt in which it gains
// b and becomes its owner, so it expects a transfer from node 1.
func (r *codecRig) startMigration() uint32 {
	r.t.Helper()
	next, err := r.ix.Rebind(sharegraph.NewPlacement(numStubNodes).
		Assign(0, "a", "b").Assign(1, "a", "b").Assign(2, "b").SetOwner("b", 0), 1)
	if err != nil {
		r.t.Fatal(err)
	}
	eng := r.nodes[0].(interface{ ReconfigEngine() *mcs.Reconfig }).ReconfigEngine()
	if _, err := eng.StartReconfigure(next, []bool{true, true, true}, 1); err != nil {
		r.t.Fatal(err)
	}
	return 1
}

// valueOf reads x at node 0.
func (r *codecRig) valueOf(x string) []byte {
	r.t.Helper()
	v, err := r.nodes[0].Get(x, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	return v
}

// TestMalformedStateFrames drives malformed recovery and migration
// frames into every protocol: each must surface as exactly one
// Config.OnFault report, never a panic. The exception is a migration
// body sent to a protocol that never requests one, which is dropped
// unread. Stale-epoch and duplicate snapshots are dropped without a
// fault and without merging.
func TestMalformedStateFrames(t *testing.T) {
	xa := 0 // VarID of a
	cases := []struct {
		name string
		run  func(r *codecRig, p codecProtocol) (wantFaults int)
	}{
		{"truncated snapreq", func(r *codecRig, p codecProtocol) int {
			r.inject(1, mcs.KindSnapReq, []byte{0, 1})
			return 1
		}},
		{"truncated snapresp", func(r *codecRig, p codecProtocol) int {
			epoch := r.rejoin()
			var e mcs.Enc
			e.U32(epoch)
			r.inject(1, mcs.KindSnapResp, append(e.Bytes(), 0, 0, 0))
			return 1
		}},
		{"snapshot entry with out-of-range VarID", func(r *codecRig, p codecProtocol) int {
			epoch := r.rejoin()
			r.inject(1, mcs.KindSnapResp, snapshot(p, epoch, 1, r.ix.NumVars()+5, []byte("v")))
			return 1
		}},
		{"snapshot entry with out-of-range writer", func(r *codecRig, p codecProtocol) int {
			epoch := r.rejoin()
			from, writer := 1, numStubNodes+3
			if !p.writerOnWire {
				from = writer // the writer is the sender
			}
			r.inject(from, mcs.KindSnapResp, snapshot(p, epoch, writer, xa, []byte("v")))
			return 1
		}},
		{"truncated migresp", func(r *codecRig, p codecProtocol) int {
			attempt := r.startMigration()
			var e mcs.Enc
			e.U32(attempt)
			r.inject(1, mcs.KindEpochMigResp, append(e.Bytes(), 0, 0, 0))
			if !p.migrates {
				return 0 // no transfer was requested: an unsolicited body is dropped
			}
			return 1
		}},
		{"stale and duplicate snapresp", func(r *codecRig, p codecProtocol) int {
			epoch := r.rejoin()
			r.inject(1, mcs.KindSnapResp, snapshot(p, epoch-1, 1, xa, []byte("stale")))
			if v := r.valueOf("a"); !bytes.Equal(v, mcs.BottomValue) {
				r.t.Errorf("stale-epoch snapshot merged: a = %q", v)
			}
			r.inject(1, mcs.KindSnapResp, snapshot(p, epoch, 1, xa, []byte("fresh")))
			if v := r.valueOf("a"); string(v) != "fresh" {
				r.t.Errorf("fresh snapshot not merged: a = %q", v)
			}
			r.inject(1, mcs.KindSnapResp, snapshot(p, epoch, 1, xa, []byte("dup")))
			if v := r.valueOf("a"); string(v) != "fresh" {
				r.t.Errorf("duplicate snapshot merged: a = %q", v)
			}
			return 0
		}},
	}
	for _, p := range codecProtocols {
		for _, tc := range cases {
			t.Run(p.name+"/"+tc.name, func(t *testing.T) {
				r := newCodecRig(t, p)
				want := tc.run(r, p)
				t.Logf("faults: %v", r.faults)
				if len(r.faults) != want {
					t.Errorf("got %d faults, want %d: %v", len(r.faults), want, r.faults)
				}
			})
		}
	}
}
