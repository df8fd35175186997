package atomicreg

import (
	"errors"
	"sync"
	"testing"
	"time"

	"partialdsm/internal/check"
	"partialdsm/internal/mcs"
	"partialdsm/internal/metrics"
	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
)

func harness(t *testing.T) ([]*Node, *netsim.Network, *mcs.Recorder, *metrics.Collector) {
	t.Helper()
	pl := sharegraph.NewPlacement(3).
		Assign(0, "x", "y").
		Assign(1, "x").
		Assign(2, "x", "y")
	col := metrics.NewCollector()
	net := netsim.NewNetwork(3, netsim.Options{
		FIFO: true, MaxLatency: 100 * time.Microsecond, Seed: 1, Metrics: col,
	})
	t.Cleanup(net.Close)
	rec := mcs.NewRecorder(3)
	nodes, err := New(mcs.Config{Net: net, Placement: pl, Metrics: col, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	return nodes, net, rec, col
}

func TestWriteThenReadImmediatelyVisible(t *testing.T) {
	nodes, _, _, _ := harness(t)
	// Linearizability: once Write returns, every subsequent Read (from
	// any node) must observe it — no quiesce needed.
	if err := mcs.WriteInt(nodes[1], "x", 5); err != nil {
		t.Fatal(err)
	}
	for i, n := range nodes {
		if v, _ := mcs.ReadInt(n, "x"); v != 5 {
			t.Errorf("node %d read %d right after write ack", i, v)
		}
	}
}

func TestPrimaryIsLowestCliqueMember(t *testing.T) {
	nodes, _, _, col := harness(t)
	// y's clique is {0,2}: primary 0. A write by 2 must produce a round
	// trip 2→0→2.
	if err := mcs.WriteInt(nodes[2], "y", 1); err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()
	if s.PerKind[KindWriteReq] != 1 || s.PerKind[KindWriteAck] != 1 {
		t.Errorf("per kind: %v", s.PerKind)
	}
	// A write by the primary itself is local: no messages.
	before := col.Snapshot().Msgs
	if err := mcs.WriteInt(nodes[0], "y", 2); err != nil {
		t.Fatal(err)
	}
	if col.Snapshot().Msgs != before {
		t.Error("primary write must not touch the network")
	}
}

func TestReadRoundTrip(t *testing.T) {
	nodes, _, _, col := harness(t)
	mcs.WriteInt(nodes[0], "y", 9)
	before := col.Snapshot().Msgs
	v, err := mcs.ReadInt(nodes[2], "y")
	if err != nil {
		t.Fatal(err)
	}
	if v != 9 {
		t.Errorf("read %d", v)
	}
	if col.Snapshot().Msgs != before+2 {
		t.Error("remote read must cost exactly one round trip")
	}
}

func TestConcurrentWritersLinearizable(t *testing.T) {
	nodes, net, rec, _ := harness(t)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 15; k++ {
				if err := mcs.WriteInt(nodes[i], "x", int64(i*1000+k+1)); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, err := mcs.ReadInt(nodes[i], "x"); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	net.Quiesce()
	err := check.WitnessAtomic(3, rec.Logs(), func(x string) int {
		if x == "x" {
			return 0
		}
		return 0
	})
	if err != nil {
		t.Fatalf("atomic witness: %v", err)
	}
}

func TestAccessControlAndMissingVar(t *testing.T) {
	nodes, _, _, _ := harness(t)
	if err := mcs.WriteInt(nodes[1], "y", 1); !errors.Is(err, mcs.ErrNotReplicated) {
		t.Errorf("write y by node 1: %v", err)
	}
	if _, err := mcs.ReadInt(nodes[1], "y"); !errors.Is(err, mcs.ErrNotReplicated) {
		t.Errorf("read y by node 1: %v", err)
	}
}

func TestReadRacingFlipBouncesAndRetries(t *testing.T) {
	// x's owner moves 0→1 while reader 2 still runs the old epoch — the
	// one request class that may legitimately straggle across a flip,
	// because reads are unfenced. The ex-owner must bounce the request
	// with its epoch tag, the reader must park until its own commit
	// arrives, and the retry must reach the new owner and return the
	// transferred value.
	nodes, _, _, col := harness(t)
	if err := mcs.WriteInt(nodes[0], "x", 7); err != nil {
		t.Fatal(err)
	}
	next, err := nodes[0].ix.Rebind(sharegraph.NewPlacement(3).
		Assign(0, "x", "y").
		Assign(1, "x").
		Assign(2, "x", "y").
		SetOwner("x", 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the handshake's data path by hand on nodes 0 and 1 only —
	// fence, transfer, flip — reproducing the window the engine passes
	// through after the coordinator decides commit and before the last
	// commit drains: reader 2 is still in epoch 0.
	xi := nodes[0].ix.ID("x")
	var enc mcs.Enc
	enc.SetBuf(mcs.GetPayload())
	nodes[0].mu.Lock()
	nodes[0].ReconfigFenceLocked(next)
	nodes[0].EncodeStateLocked(&enc, 1, []int{xi}, mcs.Migration)
	nodes[0].ReconfigFlipLocked(next)
	nodes[0].mu.Unlock()
	nodes[1].mu.Lock()
	nodes[1].ReconfigFenceLocked(next)
	d := mcs.DecOf(enc.Bytes())
	err = nodes[1].MergeStateLocked(&d, 0, mcs.Migration)
	if err == nil {
		nodes[1].ReconfigFlipLocked(next)
	}
	nodes[1].mu.Unlock()
	if err != nil {
		t.Fatalf("transfer merge: %v", err)
	}

	// The stale-epoch read: routed to ex-owner 0, bounced, parked.
	got := make(chan int64, 1)
	go func() {
		v, err := mcs.ReadInt(nodes[2], "x")
		if err != nil {
			t.Errorf("bounced read failed: %v", err)
		}
		got <- v
	}()
	deadline := time.Now().Add(5 * time.Second)
	for col.Snapshot().PerKind[KindReadBounce] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ex-owner never bounced the stale-epoch read")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case v := <-got:
		t.Fatalf("read returned %d before the reader's commit arrived", v)
	default:
	}
	// Deliver reader 2's commit: the flip wakes the parked read, which
	// re-resolves the owner and retries against node 1.
	nodes[2].mu.Lock()
	nodes[2].ReconfigFenceLocked(next)
	nodes[2].ReconfigFlipLocked(next)
	nodes[2].mu.Unlock()
	if v := <-got; v != 7 {
		t.Fatalf("retried read = %d, want the transferred 7", v)
	}
	s := col.Snapshot()
	if s.PerKind[KindReadBounce] != 1 {
		t.Errorf("bounces = %d, want exactly 1", s.PerKind[KindReadBounce])
	}
	if s.PerKind[KindReadReq] < 2 {
		t.Errorf("read requests = %d, want the original and the retry", s.PerKind[KindReadReq])
	}
}

func TestUnknownKindPanics(t *testing.T) {
	nodes, _, _, _ := harness(t)
	defer func() {
		if recover() == nil {
			t.Error("unknown kind must panic")
		}
	}()
	nodes[0].handle(netsim.Message{From: 1, To: 0, Kind: "bogus"})
}

func TestMalformedPayloadPanics(t *testing.T) {
	nodes, _, _, _ := harness(t)
	defer func() {
		if recover() == nil {
			t.Error("malformed write request must panic")
		}
	}()
	nodes[0].handle(netsim.Message{From: 1, To: 0, Kind: KindWriteReq, Payload: []byte{1}})
}
