// Package causalfull implements a causally consistent memory with
// complete replication, in the style of Ahamad, Neiger, Burns, Kohli &
// Hutto ("Causal Memory: Definitions, Implementation and Programming")
// — the baseline the paper contrasts partial replication against (§1).
//
// Every node replicates every variable and timestamps its writes with a
// vector clock counting writes per process. Updates are broadcast;
// delivery is delayed until the causal-broadcast condition holds
// (ts[w] = VC[w]+1 for the writer w and ts[k] ≤ VC[k] otherwise), and
// applies follow delivery order, which is a linear extension of the
// causality order. Reads are wait-free on the local replica.
//
// The control information is Θ(n) per message — the scalability cost
// the paper's §3.3 argues is unavoidable for causal consistency under
// general variable distributions. The implementation keeps the
// *allocation* cost per operation O(1) nonetheless: the vector clock is
// encoded straight from the node's clock array into the coalescing
// outbox (no per-write timestamp copy), replicas are a flat
// mcs.Replicas byte-value store over interned VarIDs, and the receive
// path decodes each record's
// clock into a per-node scratch slice, copying it only when the update
// must wait in the pending buffer (the out-of-order cold path).
package causalfull

import (
	"fmt"
	"sync"

	"partialdsm/internal/mcs"
	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
)

// KindUpdate is the protocol's only message kind: a batched frame of
// (U32Slice vc, VarVal varID/value) records.
const KindUpdate = "causal.update"

// update is a buffered remote write (cold path: out-of-order arrival);
// v is a pooled copy of the value bytes, recycled at delivery.
type update struct {
	writer int
	ts     []uint32
	varID  int
	v      []byte
}

// Node is one causal MCS process with a full replica set.
type Node struct {
	cfg mcs.Config
	id  int
	ix  *sharegraph.Index

	peers []int // every node but this one (broadcast set)

	mu       sync.Mutex
	vc       []uint32       // vc[p] = number of p's writes applied locally
	replicas mcs.Replicas   // by VarID
	tags     []mcs.WriteTag // by VarID: last applied write (for snapshots)
	pending  []update
	tsTmp    []uint32 // decode scratch, reused per record

	rcv       *mcs.Recovery
	rejoining bool

	// Epoch reconfiguration: every node replicates every variable, so a
	// flip only swaps the access-scoping index — no fence, no transfer.
	rcf *mcs.Reconfig

	out *mcs.Outbox
}

// New instantiates the nodes and installs handlers. The protocol
// replicates every variable everywhere; the placement scopes only the
// application's access rights.
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
			ix:       ix,
			vc:       make([]uint32, n),
			replicas: mcs.NewReplicas(ix.NumVars()),
			tags:     mcs.NewWriteTags(ix.NumVars()),
			tsTmp:    make([]uint32, 0, n),
			out:      mcs.NewOutbox(cfg.Net, i, KindUpdate, cfg.CoalesceBatch),
		}
		for p := 0; p < n; p++ {
			if p != i {
				node.peers = append(node.peers, p)
			}
		}
		node.rcv = mcs.NewRecovery(cfg, i, &node.mu, node)
		node.rcv.OnDone = node.finishRejoinLocked
		node.rcf = mcs.NewReconfig(cfg, i, &node.mu, node, ix)
		cfg.ApplyFlushPolicy(&node.mu, node.out)
		nodes[i] = node
		cfg.Net.SetHandler(i, node.handle)
	}
	return nodes, nil
}

// ID returns the node identifier.
func (n *Node) ID() int { return n.id }

// Write performs w_i(x)v: stamp with the vector clock, apply locally,
// stage the broadcast. Although every node replicates every variable,
// the placement still scopes which variables the *application* process
// may access (the paper's X_i model).
func (n *Node) Put(x string, v []byte) error {
	n.mu.Lock()
	xi := n.ix.ID(x)
	if !n.ix.Holds(n.id, xi) {
		n.mu.Unlock()
		return fmt.Errorf("%w: node %d, variable %s", mcs.ErrNotReplicated, n.id, x)
	}
	name := n.ix.Name(xi)
	n.vc[n.id]++
	wseq := int(n.vc[n.id]) - 1
	n.replicas.Set(xi, v)
	n.tags[xi] = mcs.WriteTag{Writer: n.id, WSeq: wseq}
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordWrite(n.id, name, v)
		rec.RecordApply(n.id, n.id, wseq, name, v)
	}
	enc := n.out.Stage()
	enc.U32Slice(n.vc).VarVal(xi, v)
	ctrl := enc.Len() - len(v)
	n.out.Emit(n.peers, n.ix.MsgVars(xi), ctrl, len(v))
	n.mu.Unlock()
	return nil
}

// PutAsync is Put: causal-broadcast writes are wait-free.
func (n *Node) PutAsync(x string, v []byte) (mcs.Pending, error) {
	return mcs.Done, n.Put(x, v)
}

// Get performs r_i(x) wait-free on the local replica, flushing any
// coalesced updates first.
func (n *Node) Get(x string, dst []byte) ([]byte, error) {
	n.mu.Lock()
	xi := n.ix.ID(x)
	if !n.ix.Holds(n.id, xi) {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: node %d, variable %s", mcs.ErrNotReplicated, n.id, x)
	}
	if n.out.HasPending() {
		n.out.Flush()
	}
	dst = append(dst[:0], n.replicas.Get(xi)...)
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordRead(n.id, n.ix.Name(xi), dst)
	}
	n.mu.Unlock()
	// A polling reader drives buffered writers' flush deadlines.
	n.out.Nudge()
	return dst, nil
}

// BeginBatch suspends update flushing (mcs.Batcher).
func (n *Node) BeginBatch() {
	n.mu.Lock()
	n.out.Hold()
	n.mu.Unlock()
}

// EndBatch flushes everything staged since BeginBatch (mcs.Batcher).
func (n *Node) EndBatch() {
	n.mu.Lock()
	n.out.Release()
	n.mu.Unlock()
}

// FlushUpdates sends all buffered updates (mcs.Flusher).
func (n *Node) FlushUpdates() {
	n.mu.Lock()
	n.out.Flush()
	n.mu.Unlock()
}

// handle dispatches on message kind: steady-state update frames plus
// the two crash-recovery kinds.
func (n *Node) handle(msg netsim.Message) {
	switch msg.Kind {
	case KindUpdate:
		n.handleUpdate(msg)
	case mcs.KindSnapReq, mcs.KindSnapResp:
		n.rcv.Handle(msg)
	default:
		if mcs.IsEpochKind(msg.Kind) {
			n.rcf.Handle(msg)
			return
		}
		n.cfg.Faultf(n.id, "causalfull: node %d: unknown message kind %q", n.id, msg.Kind)
		mcs.RecycleFrame(msg)
	}
}

// handleUpdate processes a batched frame: deliverable records apply
// immediately off the decode scratch; the rest are copied into the
// pending buffer and drained as their dependencies arrive. Records
// whose writer entry the vector clock already covers are duplicates
// (injected, or pre-crash stragglers the snapshot merge covered) and
// are dropped; during a rejoin window everything pends until the merge
// has rebuilt the clock.
func (n *Node) handleUpdate(msg netsim.Message) {
	defer mcs.RecycleFrame(msg)
	d := mcs.DecOf(msg.Payload)
	count := int(d.U32())
	if d.Err() != nil {
		n.cfg.Faultf(n.id, "causalfull: node %d: malformed frame from %d: %v", n.id, msg.From, d.Err())
		return
	}
	n.mu.Lock()
	for k := 0; k < count; k++ {
		n.tsTmp = d.U32SliceInto(n.tsTmp)
		xi, v := d.VarVal()
		if err := d.Err(); err != nil {
			n.mu.Unlock()
			n.cfg.Faultf(n.id, "causalfull: node %d: malformed update from %d: %v", n.id, msg.From, err)
			return
		}
		if xi < 0 || xi >= len(n.replicas) || len(n.tsTmp) != len(n.vc) || msg.From >= len(n.vc) {
			n.mu.Unlock()
			n.cfg.Faultf(n.id, "causalfull: node %d: update from %d has bad shape (varID %d, clock len %d)",
				n.id, msg.From, xi, len(n.tsTmp))
			return
		}
		switch {
		case n.rejoining:
			n.pending = append(n.pending, update{
				writer: msg.From,
				ts:     append([]uint32(nil), n.tsTmp...),
				varID:  xi,
				v:      append(mcs.GetPayload(), v...),
			})
		case n.tsTmp[msg.From] <= n.vc[msg.From]:
			// Already reflected: injected duplicate or snapshot-covered
			// pre-crash straggler.
		case n.deliverable(msg.From, n.tsTmp):
			n.applyLocked(msg.From, n.tsTmp[msg.From], xi, v)
			n.drainLocked()
		default:
			n.pending = append(n.pending, update{
				writer: msg.From,
				ts:     append([]uint32(nil), n.tsTmp...),
				varID:  xi,
				v:      append(mcs.GetPayload(), v...),
			})
		}
	}
	n.mu.Unlock()
}

// deliverable implements the causal-broadcast condition.
func (n *Node) deliverable(writer int, ts []uint32) bool {
	for k, t := range ts {
		switch {
		case k == writer:
			if t != n.vc[k]+1 {
				return false
			}
		case t > n.vc[k]:
			return false
		}
	}
	return true
}

// applyLocked installs one deliverable update; tsWriter is the writer's
// own clock entry (its wseq + 1).
func (n *Node) applyLocked(writer int, tsWriter uint32, xi int, v []byte) {
	n.vc[writer] = tsWriter
	n.replicas.Set(xi, v)
	n.tags[xi] = mcs.WriteTag{Writer: writer, WSeq: int(tsWriter) - 1}
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordApply(n.id, writer, int(tsWriter)-1, n.ix.Name(xi), v)
	}
}

// drainLocked applies pending updates until a fixpoint.
func (n *Node) drainLocked() {
	for progress := true; progress; {
		progress = false
		for i := 0; i < len(n.pending); i++ {
			u := n.pending[i]
			if !n.deliverable(u.writer, u.ts) {
				continue
			}
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			n.applyLocked(u.writer, u.ts[u.writer], u.varID, u.v)
			mcs.PutPayload(u.v)
			progress = true
			i--
		}
	}
}

// finishRejoinLocked closes the rejoin window (Recovery.OnDone, node
// lock held): pending updates the merged clock already covers —
// pre-crash stragglers reflected in the adopted snapshots — are
// purged, the causal drain resumes against the merged clock, and
// variables no live peer knew a value for are recorded as ⊥ resets.
func (n *Node) finishRejoinLocked() {
	n.rejoining = false
	kept := n.pending[:0]
	for _, u := range n.pending {
		if u.ts[u.writer] <= n.vc[u.writer] {
			mcs.PutPayload(u.v)
			continue
		}
		kept = append(kept, u)
	}
	n.pending = kept
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
// volatile state lost: replicas revert to ⊥; tags, the pending buffer
// and every *other* process's vector-clock entry are forgotten, to be
// re-learned from peer snapshots during Recover (mcs.CrashRestarter).
// The node's own clock entry is its write counter and survives — a
// restarted writer must not reuse timestamps its peers have already
// delivered. Incoming updates pend until the snapshot merge rebuilds
// the clock.
func (n *Node) CrashRestart() {
	n.mu.Lock()
	for xi := range n.replicas {
		n.replicas.Set(xi, mcs.BottomValue)
		n.tags[xi] = mcs.WriteTag{Writer: -1}
	}
	for k := range n.vc {
		if k != n.id {
			n.vc[k] = 0
		}
	}
	for _, u := range n.pending {
		mcs.PutPayload(u.v)
	}
	n.pending = n.pending[:0]
	n.rejoining = true
	n.rcv.Cancel()
	n.rcf.CancelLocked()
	n.mu.Unlock()
}

// Recover starts the rejoin handshake (mcs.CrashRestarter). The
// protocol broadcasts to everyone, so every live node is a snapshot
// peer.
func (n *Node) Recover() {
	n.rcv.Begin(n.peers)
}

// RecoveryStats reports completed rejoins and their summed virtual
// duration (mcs.CrashRestarter).
func (n *Node) RecoveryStats() (recoveries int, ticks uint64) {
	return n.rcv.Stats()
}

// ReconfigEngine exposes the node's epoch reconfiguration engine to the
// cluster facade.
func (n *Node) ReconfigEngine() *mcs.Reconfig { return n.rcf }

// ReconfigFlushLocked implements mcs.ReconfigHooks.
func (n *Node) ReconfigFlushLocked() { n.out.Flush() }

// ReconfigFenceLocked is a no-op (mcs.ReconfigHooks): replica state is
// global, so a flip changes only which variables the application may
// access — in-flight writes stay valid across the boundary.
func (n *Node) ReconfigFenceLocked(next *sharegraph.Index) {}

// ReconfigTransferVarsLocked reports no transfers (mcs.ReconfigHooks):
// every node already holds every variable's state.
func (n *Node) ReconfigTransferVarsLocked(next *sharegraph.Index) []int { return nil }

// RejoinVarsLocked lists every variable (mcs.StateCodec): the
// protocol replicates every variable everywhere, so any live peer can
// re-seed the whole store.
func (n *Node) RejoinVarsLocked(peer int, ids []int) []int {
	for xi := range n.tags {
		ids = append(ids, xi)
	}
	return ids
}

// EncodeStateLocked writes the tagged value of each written variable
// of varIDs (mcs.StateCodec), behind the responder's vector clock on a
// rejoin. No migration ever asks: every node already holds every
// variable's state.
func (n *Node) EncodeStateLocked(enc *mcs.Enc, peer int, varIDs []int, how mcs.Transfer) (data int, vars []string) {
	if how == mcs.Rejoin {
		enc.U32Slice(n.vc)
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

// MergeStateLocked merges a peer's body (mcs.StateCodec): a rejoin's
// vector clock merges pointwise-max (the requester's view now causally
// covers everything any answering peer had applied), and values adopt
// unless the local tag already reflects a same-writer write at least
// as new.
func (n *Node) MergeStateLocked(d *mcs.Dec, from int, how mcs.Transfer) error {
	if how == mcs.Rejoin {
		n.tsTmp = d.U32SliceInto(n.tsTmp)
		if err := d.Err(); err != nil {
			return err
		}
		if len(n.tsTmp) != len(n.vc) {
			return fmt.Errorf("causalfull: clock has %d entries, want %d", len(n.tsTmp), len(n.vc))
		}
		for k, t := range n.tsTmp {
			if t > n.vc[k] {
				n.vc[k] = t
			}
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
		if xi < 0 || xi >= len(n.replicas) || w < 0 || w >= len(n.vc) {
			return fmt.Errorf("causalfull: entry names unknown VarID %d / writer %d", xi, w)
		}
		if n.tags[xi].Stale(w, s) {
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

// ReconfigFlipLocked swaps the access-scoping index and restamps the
// outbox (mcs.ReconfigHooks).
func (n *Node) ReconfigFlipLocked(next *sharegraph.Index) {
	n.ix = next
	n.out.SetEpoch(next.Epoch())
}

// ReconfigAbortLocked is a no-op (mcs.ReconfigHooks).
func (n *Node) ReconfigAbortLocked() {}

var (
	_ mcs.Node           = (*Node)(nil)
	_ mcs.Flusher        = (*Node)(nil)
	_ mcs.Batcher        = (*Node)(nil)
	_ mcs.CrashRestarter = (*Node)(nil)
	_ mcs.ReconfigHooks  = (*Node)(nil)
)
