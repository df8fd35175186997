// Package seqcons implements sequential consistency (Lamport) with a
// sequencer: the "stronger than causal" end of the paper's criterion
// spectrum (§1), against which the latency and control-information
// costs of the weaker criteria are compared.
//
// Node 0 acts as the sequencer. A write is sent to the sequencer,
// which assigns a global sequence number and broadcasts the update to
// every node; nodes apply updates strictly in global-sequence order,
// and the writer blocks until its own update has been applied locally.
// Reads are local ("fast reads, slow writes"). The resulting executions
// admit a single serialization — the global sequence order with each
// read inserted after the last write applied at its node — that
// respects every process's program order.
//
// Because every write blocks on a round trip, updates are not coalesced
// (holding the request back would only add latency); the protocol still
// rides the interned-VarID wire format and array replicas, and the
// single-destination request payload is recycled by the sequencer.
package seqcons

import (
	"fmt"
	"sync"

	"partialdsm/internal/mcs"
	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
)

// Message kinds. A request is (U32 wseq, VarVal varID/value) with the
// writer identified by the message source; an update is
// (U32 gseq, U32 writer, U32 wseq, VarVal varID/value).
const (
	KindRequest = "seq.request" // writer → sequencer
	KindUpdate  = "seq.update"  // sequencer → everyone
)

// Node is one sequentially consistent MCS process.
type Node struct {
	cfg mcs.Config
	id  int
	// ix0 is the epoch-0 index, used for universe lookups (Name,
	// MsgVars, NumVars) that are stable across epochs — the variable
	// universe never changes — so the lock-free sequencer path needs no
	// synchronization with epoch flips.
	ix0 *sharegraph.Index

	mu sync.Mutex
	// ix is the current epoch's index (access scoping); swapped under
	// mu at an epoch flip.
	ix         *sharegraph.Index
	replicas   mcs.Replicas   // by VarID
	tags       []mcs.WriteTag // by VarID: last applied write
	wseq       int
	nextGSeq   int                 // next global sequence number to apply
	buffered   map[int]bufferedUpd // gseq → update
	ownApplied int                 // how many of this node's writes are applied locally
	applied    *sync.Cond          // signalled on every apply

	rcv       *mcs.Recovery
	rejoining bool

	// Epoch reconfiguration: replica state is global, so a flip only
	// swaps the access-scoping index — no fence, no transfer.
	rcf *mcs.Reconfig

	// Sequencer state (node 0 only). The counter is durable across the
	// sequencer's own crashes: it cannot be reconstructed from replicas
	// (in-flight broadcasts may outrun every peer's apply cursor), and a
	// reused global sequence number would fork the total order.
	seqMu sync.Mutex
	gseq  int
}

// bufferedUpd is one globally sequenced update awaiting in-order
// apply; v is a pooled copy of the value bytes, recycled at apply.
type bufferedUpd struct {
	writer int
	wseq   int
	varID  int
	v      []byte
}

// New instantiates the nodes; node 0 doubles as the sequencer.
func New(cfg mcs.Config) ([]*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ix := cfg.Placement.Index()
	n := ix.NumProcs()
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node := &Node{
			cfg:      cfg,
			id:       i,
			ix0:      ix,
			ix:       ix,
			replicas: mcs.NewReplicas(ix.NumVars()),
			tags:     mcs.NewWriteTags(ix.NumVars()),
			buffered: make(map[int]bufferedUpd),
		}
		node.applied = sync.NewCond(&node.mu)
		node.rcv = mcs.NewRecovery(cfg, i, &node.mu, node)
		node.rcv.OnDone = node.finishRejoinLocked
		node.rcf = mcs.NewReconfig(cfg, i, &node.mu, node, ix)
		nodes[i] = node
		cfg.Net.SetHandler(i, node.handle)
	}
	return nodes, nil
}

// ID returns the node identifier.
func (n *Node) ID() int { return n.id }

// resolve interns x and checks the current epoch's access scope under
// the node lock.
func (n *Node) resolve(x string) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	xi := n.ix.ID(x)
	if !n.ix.Holds(n.id, xi) {
		return -1, fmt.Errorf("%w: node %d, variable %s", mcs.ErrNotReplicated, n.id, x)
	}
	return xi, nil
}

// issue records and sends one write request to the sequencer,
// returning its per-process sequence number.
func (n *Node) issue(xi int, v []byte) (wseq int) {
	n.mu.Lock()
	wseq = n.wseq
	n.wseq++
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordWrite(n.id, n.ix0.Name(xi), v)
	}
	n.mu.Unlock()

	var enc mcs.Enc
	enc.SetBuf(mcs.GetPayload())
	enc.U32(uint32(wseq)).VarVal(xi, v)
	payload := enc.Bytes()
	n.cfg.Net.Send(netsim.Message{
		From:      n.id,
		To:        0,
		Kind:      KindRequest,
		Payload:   payload,
		CtrlBytes: len(payload) - len(v),
		DataBytes: len(v),
		Vars:      n.ix0.MsgVars(xi),
	})
	return wseq
}

// Put performs w_i(x)v: route through the sequencer and block until
// the update is applied locally, so a process's writes take effect in
// program order before its subsequent reads.
func (n *Node) Put(x string, v []byte) error {
	xi, err := n.resolve(x)
	if err != nil {
		return err
	}
	wseq := n.issue(xi, v)
	// Block until our own write has been applied locally.
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.OpDeadlineTicks > 0 {
		return n.cfg.WaitDeadline(n.id, n.applied,
			func() bool { return n.appliedOwnLocked(wseq) },
			func() string { return fmt.Sprintf("seqcons: node %d write #%d to %s", n.id, wseq, x) })
	}
	for !n.appliedOwnLocked(wseq) {
		n.applied.Wait()
	}
	return nil
}

// pending is an outstanding asynchronous write: it completes when the
// node's wseq-th own write has been applied locally — exactly where
// the synchronous Put would have returned. The sequencer receives
// requests from this node in issue order (per-pair FIFO), so multiple
// outstanding writes complete in issue order.
type pending struct {
	n    *Node
	wseq int
}

// Wait blocks until the write is applied locally.
func (p *pending) Wait() error {
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.OpDeadlineTicks > 0 {
		return n.cfg.WaitDeadline(n.id, n.applied,
			func() bool { return n.appliedOwnLocked(p.wseq) },
			func() string { return fmt.Sprintf("seqcons: node %d async write #%d", n.id, p.wseq) })
	}
	for !n.appliedOwnLocked(p.wseq) {
		n.applied.Wait()
	}
	return nil
}

// PutAsync performs w_i(x)v without waiting for the sequencer round
// trip. The update is on the wire when PutAsync returns; Wait blocks
// until it is applied locally. A read issued before Wait may miss the
// write — the caller trades read-your-writes for pipelining. Multiple
// outstanding writes reach the sequencer in issue order only on FIFO
// channels, so on a NonFIFO network PutAsync degrades to the
// synchronous Put (one outstanding request, the v1 discipline).
func (n *Node) PutAsync(x string, v []byte) (mcs.Pending, error) {
	if n.cfg.NonFIFO {
		return mcs.Done, n.Put(x, v)
	}
	xi, err := n.resolve(x)
	if err != nil {
		return nil, err
	}
	return &pending{n: n, wseq: n.issue(xi, v)}, nil
}

// appliedOwnLocked reports whether this node's write #wseq has been
// applied locally (the apply loop counts own writes).
func (n *Node) appliedOwnLocked(wseq int) bool {
	return n.ownApplied > wseq
}

// Get performs r_i(x) on the local replica, appending the value to
// dst[:0].
func (n *Node) Get(x string, dst []byte) ([]byte, error) {
	n.mu.Lock()
	xi := n.ix.ID(x)
	if !n.ix.Holds(n.id, xi) {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: node %d, variable %s", mcs.ErrNotReplicated, n.id, x)
	}
	dst = append(dst[:0], n.replicas.Get(xi)...)
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordRead(n.id, n.ix.Name(xi), dst)
	}
	n.mu.Unlock()
	return dst, nil
}

// handle dispatches on message kind.
func (n *Node) handle(msg netsim.Message) {
	switch msg.Kind {
	case KindRequest:
		n.sequence(msg)
	case KindUpdate:
		n.applyUpdate(msg)
	case mcs.KindSnapReq, mcs.KindSnapResp:
		n.rcv.Handle(msg)
	default:
		if mcs.IsEpochKind(msg.Kind) {
			n.rcf.Handle(msg)
			return
		}
		n.cfg.Faultf(n.id, "seqcons: node %d: unknown message kind %q", n.id, msg.Kind)
		mcs.RecycleFrame(msg)
	}
}

// sequence (sequencer role) assigns the global order and broadcasts.
// Malformed or misrouted requests are reported through Config.Faultf
// and dropped (a panic on a reliable network, a survivable fault
// under injection).
func (n *Node) sequence(msg netsim.Message) {
	if n.id != 0 {
		n.cfg.Faultf(n.id, "seqcons: request routed to non-sequencer node %d", n.id)
		mcs.RecycleFrame(msg)
		return
	}
	d := mcs.DecOf(msg.Payload)
	wseq := int(d.U32())
	xi, v := d.VarVal()
	if err := d.Err(); err != nil {
		n.cfg.Faultf(n.id, "seqcons: malformed request from %d: %v", msg.From, err)
		mcs.RecycleFrame(msg)
		return
	}
	if xi < 0 || xi >= n.ix0.NumVars() {
		n.cfg.Faultf(n.id, "seqcons: request from %d names unknown VarID %d", msg.From, xi)
		mcs.RecycleFrame(msg)
		return
	}
	n.seqMu.Lock()
	g := n.gseq
	n.gseq++
	n.seqMu.Unlock()

	// The broadcast payload is shared across every Send: a refcounted
	// pooled frame that the last receiver recycles. v still aliases the
	// request payload, which is recycled only after the re-encode.
	numNodes := n.cfg.Net.NumNodes()
	buf, refs := mcs.GetSharedPayload(numNodes)
	var enc mcs.Enc
	enc.SetBuf(buf)
	enc.U32(uint32(g)).U32(uint32(msg.From)).U32(uint32(wseq)).VarVal(xi, v)
	payload := enc.Bytes()
	mcs.PutPayload(msg.Payload) // single-destination request: sequencer owns it
	for p := 0; p < numNodes; p++ {
		n.cfg.Net.Send(netsim.Message{
			From:          n.id,
			To:            p,
			Kind:          KindUpdate,
			Payload:       payload,
			CtrlBytes:     len(payload) - len(v),
			DataBytes:     len(v),
			Vars:          n.ix0.MsgVars(xi),
			SharedPayload: true,
			SharedRefs:    refs,
		})
	}
}

// applyUpdate applies updates strictly in global sequence order.
func (n *Node) applyUpdate(msg netsim.Message) {
	d := mcs.DecOf(msg.Payload)
	g := int(d.U32())
	writer := int(d.U32())
	wseq := int(d.U32())
	xi, v := d.VarVal()
	if err := d.Err(); err != nil {
		n.cfg.Faultf(n.id, "seqcons: node %d: malformed update: %v", n.id, err)
		mcs.RecycleFrame(msg)
		return
	}
	if xi < 0 || xi >= n.ix0.NumVars() {
		n.cfg.Faultf(n.id, "seqcons: node %d: update names unknown VarID %d", n.id, xi)
		mcs.RecycleFrame(msg)
		return
	}
	n.mu.Lock()
	if g < n.nextGSeq && !n.rejoining {
		// Behind the apply cursor: a fault-layer duplicate, or an update
		// whose effect an adopted snapshot already covers. The replica
		// state needs nothing, but an own write riding it must still be
		// settled or its Put/Wait would block forever.
		n.settleOwnLocked(writer, wseq)
		n.mu.Unlock()
		mcs.RecycleFrame(msg)
		return
	}
	// The value must outlive the shared broadcast frame: copy it into a
	// pooled buffer, recycled when the update applies. During a rejoin
	// window updates only buffer: the apply cursor is being re-learned
	// from peer snapshots, and the drain resumes from the adopted one.
	n.buffered[g] = bufferedUpd{writer: writer, wseq: wseq, varID: xi, v: append(mcs.GetPayload(), v...)}
	if !n.rejoining {
		n.drainLocked()
	}
	n.mu.Unlock()
	mcs.RecycleFrame(msg) // last receiver of the shared broadcast recycles it
}

// drainLocked applies buffered updates in global-sequence order from
// the cursor and wakes write waiters.
func (n *Node) drainLocked() {
	for {
		u, ok := n.buffered[n.nextGSeq]
		if !ok {
			break
		}
		delete(n.buffered, n.nextGSeq)
		n.nextGSeq++
		n.replicas.Set(u.varID, u.v)
		n.tags[u.varID] = mcs.WriteTag{Writer: u.writer, WSeq: u.wseq}
		if rec := n.cfg.Recorder; rec != nil {
			rec.RecordApply(n.id, u.writer, u.wseq, n.ix.Name(u.varID), u.v)
		}
		n.settleOwnLocked(u.writer, u.wseq)
		mcs.PutPayload(u.v)
	}
	n.applied.Broadcast()
}

// settleOwnLocked advances the own-write completion cursor when an own
// update's effect is in the replica state — applied by the drain,
// covered by an adopted snapshot prefix, or echoed by a fault-layer
// duplicate. Keyed to the write's per-process sequence (not a count of
// apply events), it is idempotent under duplicates and never regresses
// on a pre-crash straggler: writes blocked at the crash are settled by
// CrashRestart at a cursor at or above their wseq.
func (n *Node) settleOwnLocked(writer, wseq int) {
	if writer == n.id && wseq+1 > n.ownApplied {
		n.ownApplied = wseq + 1
		n.applied.Broadcast()
	}
}

// finishRejoinLocked closes the rejoin window (Recovery.OnDone, node
// lock held): buffered updates below the adopted cursor — pre-crash
// stragglers the snapshot already covers — are purged, the drain
// resumes from the cursor, and variables no live peer knew a value for
// are recorded as ⊥ resets.
func (n *Node) finishRejoinLocked() {
	n.rejoining = false
	for g, u := range n.buffered {
		if g < n.nextGSeq {
			delete(n.buffered, g)
			// The purged update's effect is inside the adopted snapshot;
			// an own write issued during the rejoin window still completes.
			n.settleOwnLocked(u.writer, u.wseq)
			mcs.PutPayload(u.v)
		}
	}
	if rec := n.cfg.Recorder; rec != nil {
		for _, xi := range n.ix.VarIDs(n.id) {
			if n.tags[xi].Writer < 0 {
				rec.RecordRecover(n.id, -1, -1, n.ix.Name(xi), mcs.BottomValue)
			}
		}
	}
	n.drainLocked()
}

// CrashRestart models the node rejoining after a crash with its
// volatile state lost: replicas revert to ⊥; tags, the apply cursor and
// the reorder buffer are forgotten, to be re-learned from peer
// snapshots during Recover (mcs.CrashRestarter). Durable state
// survives: the node's own write counter, and — for node 0 — the
// sequencer counter (a reused global sequence number would fork the
// total order). Writes still blocked from before the crash complete:
// their requests died with the node.
func (n *Node) CrashRestart() {
	n.mu.Lock()
	for xi := range n.replicas {
		n.replicas.Set(xi, mcs.BottomValue)
		n.tags[xi] = mcs.WriteTag{Writer: -1}
	}
	for g, u := range n.buffered {
		delete(n.buffered, g)
		mcs.PutPayload(u.v)
	}
	n.nextGSeq = 0
	n.ownApplied = n.wseq
	n.rejoining = true
	n.rcv.Cancel()
	n.rcf.CancelLocked()
	n.applied.Broadcast()
	n.mu.Unlock()
}

// Recover starts the rejoin handshake (mcs.CrashRestarter). Sequencer
// broadcasts reach every node, so every live node is a snapshot peer.
func (n *Node) Recover() {
	peers := make([]int, 0, n.cfg.Net.NumNodes()-1)
	for p := 0; p < n.cfg.Net.NumNodes(); p++ {
		if p != n.id {
			peers = append(peers, p)
		}
	}
	n.rcv.Begin(peers)
}

// RecoveryStats reports completed rejoins and their summed virtual
// duration (mcs.CrashRestarter).
func (n *Node) RecoveryStats() (recoveries int, ticks uint64) {
	return n.rcv.Stats()
}

// ReconfigEngine exposes the node's epoch reconfiguration engine to the
// cluster facade.
func (n *Node) ReconfigEngine() *mcs.Reconfig { return n.rcf }

// ReconfigFlushLocked is a no-op (mcs.ReconfigHooks): the protocol has
// no coalescing outbox — requests and broadcasts go straight out.
func (n *Node) ReconfigFlushLocked() {}

// ReconfigFenceLocked is a no-op (mcs.ReconfigHooks): replica state is
// global, so a flip changes only which variables the application may
// access — writes in the sequencer pipeline stay valid across it.
func (n *Node) ReconfigFenceLocked(next *sharegraph.Index) {}

// ReconfigTransferVarsLocked reports no transfers (mcs.ReconfigHooks):
// every node already holds every variable's state.
func (n *Node) ReconfigTransferVarsLocked(next *sharegraph.Index) []int { return nil }

// RejoinVarsLocked lists every variable (mcs.StateCodec): sequencer
// broadcasts reach every node, so any live peer's state is a prefix of
// the single global order and covers every variable.
func (n *Node) RejoinVarsLocked(peer int, ids []int) []int {
	for xi := range n.tags {
		ids = append(ids, xi)
	}
	return ids
}

// EncodeStateLocked writes the tagged value of each written variable
// of varIDs (mcs.StateCodec), behind the responder's apply cursor on a
// rejoin. No migration ever asks: every node already holds every
// variable's state.
func (n *Node) EncodeStateLocked(enc *mcs.Enc, peer int, varIDs []int, how mcs.Transfer) (data int, vars []string) {
	if how == mcs.Rejoin {
		enc.U32(uint32(n.nextGSeq))
	}
	countPos := enc.Len()
	enc.U32(0)
	count := 0
	for _, xi := range varIDs {
		t := n.tags[xi]
		if t.Writer < 0 {
			continue
		}
		v := n.replicas.Get(xi)
		enc.U32(uint32(t.Writer)).U32(uint32(t.WSeq)).VarVal(xi, v)
		vars = append(vars, n.ix.Name(xi))
		data += len(v)
		count++
	}
	enc.PatchU32(countPos, uint32(count))
	return data, vars
}

// MergeStateLocked adopts a rejoin snapshot wholesale when it extends
// the longest prefix adopted so far (mcs.StateCodec): every snapshot is
// a prefix of the one global order, so the highest apply cursor wins
// and its per-variable state is at least as new, variable by variable,
// as any shorter one.
func (n *Node) MergeStateLocked(d *mcs.Dec, from int, how mcs.Transfer) error {
	adopt := true
	if how == mcs.Rejoin {
		g := int(d.U32())
		adopt = g > n.nextGSeq
		if adopt {
			n.nextGSeq = g
		}
	}
	count := int(d.U32())
	for k := 0; k < count; k++ {
		w := int(d.U32())
		s := int(d.U32())
		xi, v := d.VarVal()
		if err := d.Err(); err != nil {
			return err
		}
		if xi < 0 || xi >= n.ix.NumVars() || w < 0 || w >= n.cfg.Net.NumNodes() {
			return fmt.Errorf("seqcons: entry names unknown VarID %d / writer %d", xi, w)
		}
		if !adopt {
			continue
		}
		n.replicas.Set(xi, v)
		n.tags[xi] = mcs.WriteTag{Writer: w, WSeq: s}
		if rec := n.cfg.Recorder; rec != nil {
			rec.RecordTransfer(how, n.id, w, s, n.ix.Name(xi), v, 0)
		}
	}
	return d.Err()
}

// ReconfigFlipLocked swaps the access-scoping index
// (mcs.ReconfigHooks). There is no outbox to restamp: requests and
// broadcasts are sent unbatched.
func (n *Node) ReconfigFlipLocked(next *sharegraph.Index) { n.ix = next }

// ReconfigAbortLocked is a no-op (mcs.ReconfigHooks).
func (n *Node) ReconfigAbortLocked() {}

var (
	_ mcs.Node           = (*Node)(nil)
	_ mcs.CrashRestarter = (*Node)(nil)
	_ mcs.ReconfigHooks  = (*Node)(nil)
)
