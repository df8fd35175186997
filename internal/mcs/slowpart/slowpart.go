// Package slowpart implements slow memory (Hutto & Ahamad), the
// criterion weaker than PRAM that the paper mentions in §5 via Sinha's
// Mermera work: each process must observe another process's writes *to
// a single variable* in issue order, while writes by one process to
// different variables may be observed out of order.
//
// The protocol mirrors prampart but replaces the per-sender FIFO
// requirement with per-(sender, variable) sequencing done at the
// receiver, so it tolerates non-FIFO channels: each update carries a
// per-(sender, variable) sequence number; out-of-order updates are
// buffered per (sender, variable) and applied in sequence, while
// updates of different variables from the same sender commute.
// Like prampart it is efficient in the paper's sense: information about
// x flows only within C(x).
//
// Replica and sequencing state is flat arrays indexed by the dense
// VarID interning of the placement; the in-order receive path (the only
// path FIFO transports ever take) applies without touching a map, and
// updates ride the coalescing mcs.Outbox, so Read is 0 allocs/op and
// Write amortizes below one allocation in steady state.
package slowpart

import (
	"fmt"
	"sync"

	"partialdsm/internal/mcs"
	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
)

// KindUpdate is the protocol's only message kind: a batched frame of
// (U32 wseq, U32 vseq, VarVal varID/value) records.
const KindUpdate = "slow.update"

// update is a buffered out-of-order remote write; v is a pooled copy
// of the value bytes, recycled at delivery.
type update struct {
	wseq int
	v    []byte
}

// heldUpd is a remote update received during the rejoin window, replayed
// through the normal apply path once the snapshot merge has restored the
// receive cursors; v is a pooled copy.
type heldUpd struct {
	from, wseq, vseq, varID int
	v                       []byte
}

// Node is one slow-memory MCS process.
type Node struct {
	cfg mcs.Config
	id  int
	ix  *sharegraph.Index

	mu       sync.Mutex
	replicas mcs.Replicas   // by VarID
	tags     []mcs.WriteTag // by VarID: last applied write
	wseq     int            // own global write counter (for the recorder)
	vseq     []int          // per-VarID own write counter (wire sequence)
	next     [][]int        // next[sender][VarID]: next expected sequence
	// buffered holds out-of-order updates per (sender, VarID) — the
	// cold path; FIFO transports never populate it.
	buffered map[senderVar]map[int]update

	rcv       *mcs.Recovery
	rejoining bool
	held      []heldUpd

	// Epoch reconfiguration: writes to variables whose clique changes
	// park on the fence for the transition window.
	rcf   *mcs.Reconfig
	fence mcs.Fence

	out *mcs.Outbox
}

// senderVar keys the out-of-order buffer.
type senderVar struct {
	sender int
	varID  int
}

// New instantiates one node per process and installs handlers.
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
			replicas: mcs.NewReplicas(ix.NumVars()),
			tags:     mcs.NewWriteTags(ix.NumVars()),
			vseq:     make([]int, ix.NumVars()),
			next:     make([][]int, n),
			buffered: make(map[senderVar]map[int]update),
			out:      mcs.NewOutbox(cfg.Net, i, KindUpdate, cfg.CoalesceBatch),
		}
		for j := range node.next {
			node.next[j] = make([]int, ix.NumVars())
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

// Put performs w_i(x)v: local apply, then stage the update for C(x)
// with the per-variable sequence number.
func (n *Node) Put(x string, v []byte) error {
	n.mu.Lock()
	xi := n.ix.ID(x)
	if err := n.fence.WaitLocked(n.cfg, n.id, xi, x); err != nil {
		n.mu.Unlock()
		return err
	}
	// Re-check against the possibly flipped index: the fence lifts at
	// the epoch boundary, and this node may have shed the variable.
	if !n.ix.Holds(n.id, xi) {
		n.mu.Unlock()
		return fmt.Errorf("%w: node %d, variable %s", mcs.ErrNotReplicated, n.id, x)
	}
	name := n.ix.Name(xi)
	wseq := n.wseq
	n.wseq++
	vseq := n.vseq[xi]
	n.vseq[xi]++
	n.replicas.Set(xi, v)
	n.tags[xi] = mcs.WriteTag{Writer: n.id, WSeq: wseq}
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordWrite(n.id, name, v)
		rec.RecordApply(n.id, n.id, wseq, name, v)
	}
	enc := n.out.Stage()
	enc.U32(uint32(wseq)).U32(uint32(vseq)).VarVal(xi, v)
	n.out.Emit(n.ix.Peers(n.id, xi), n.ix.MsgVars(xi), enc.Len()-len(v), len(v))
	n.mu.Unlock()
	return nil
}

// PutAsync is Put: slow-memory writes are wait-free.
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
		n.cfg.Faultf(n.id, "slowpart: node %d: unknown message kind %q", n.id, msg.Kind)
		mcs.RecycleFrame(msg)
	}
}

// handleUpdate applies each record of the frame if it is next in its
// (sender, variable) stream, otherwise buffers it; then drains the
// stream. During a rejoin window records are held back instead: the
// receive cursors are being re-learned from peer snapshots, and
// applying against the wiped cursors would replay pre-crash writes.
func (n *Node) handleUpdate(msg netsim.Message) {
	defer mcs.RecycleFrame(msg)
	d := mcs.DecOf(msg.Payload)
	count := int(d.U32())
	if d.Err() != nil {
		n.cfg.Faultf(n.id, "slowpart: node %d: malformed frame from %d: %v", n.id, msg.From, d.Err())
		return
	}
	n.mu.Lock()
	for k := 0; k < count; k++ {
		wseq := int(d.U32())
		vseq := int(d.U32())
		xi, v := d.VarVal()
		if err := d.Err(); err != nil {
			n.mu.Unlock()
			n.cfg.Faultf(n.id, "slowpart: node %d: malformed update from %d: %v", n.id, msg.From, err)
			return
		}
		if xi < 0 || xi >= len(n.replicas) {
			n.mu.Unlock()
			n.cfg.Faultf(n.id, "slowpart: node %d: update from %d names unknown VarID %d", n.id, msg.From, xi)
			return
		}
		if n.rejoining {
			n.held = append(n.held, heldUpd{from: msg.From, wseq: wseq, vseq: vseq, varID: xi, v: append(mcs.GetPayload(), v...)})
			continue
		}
		n.applyLocked(msg.From, wseq, vseq, xi, v)
	}
	n.mu.Unlock()
}

// applyLocked applies the update in (sender, variable) sequence order,
// buffering it when it arrived early and draining successors. Updates
// below the stream cursor are already reflected — an injected
// duplicate, or a pre-crash straggler covered by the snapshot merge —
// and are dropped. v aliases the delivered frame: the buffer path
// copies it into a pooled buffer that outlives the frame.
func (n *Node) applyLocked(sender, wseq, vseq, xi int, v []byte) {
	if !n.ix.Holds(n.id, xi) && !n.rcf.PendingHoldsLocked(n.id, xi) {
		// An old-epoch straggler for a shed variable: drop without
		// touching the stream cursor (re-gaining the variable re-seeds
		// cursors from a fence-settled donor).
		return
	}
	if vseq < n.next[sender][xi] {
		return
	}
	if vseq != n.next[sender][xi] {
		k := senderVar{sender: sender, varID: xi}
		if n.buffered[k] == nil {
			n.buffered[k] = make(map[int]update)
		}
		n.buffered[k][vseq] = update{wseq: wseq, v: append(mcs.GetPayload(), v...)}
		return
	}
	n.deliverLocked(sender, wseq, xi, v)
	// Drain any buffered successors of the stream.
	if len(n.buffered) == 0 {
		return
	}
	k := senderVar{sender: sender, varID: xi}
	for {
		u, ok := n.buffered[k][n.next[sender][xi]]
		if !ok {
			return
		}
		delete(n.buffered[k], n.next[sender][xi])
		n.deliverLocked(sender, u.wseq, xi, u.v)
		mcs.PutPayload(u.v)
	}
}

// deliverLocked installs one in-sequence update.
func (n *Node) deliverLocked(sender, wseq, xi int, v []byte) {
	n.next[sender][xi]++
	n.replicas.Set(xi, v)
	n.tags[xi] = mcs.WriteTag{Writer: sender, WSeq: wseq}
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordApply(n.id, sender, wseq, n.ix.Name(xi), v)
	}
}

// finishRejoinLocked closes the rejoin window (Recovery.OnDone, node
// lock held): updates held back during recovery replay through the
// normal sequencing path against the merged cursors — stragglers the
// snapshot already covers drop as stale, the rest deliver or buffer —
// and variables no live peer knew a value for are recorded as ⊥ resets.
func (n *Node) finishRejoinLocked() {
	n.rejoining = false
	held := n.held
	n.held = nil
	for _, u := range held {
		n.applyLocked(u.from, u.wseq, u.vseq, u.varID, u.v)
		mcs.PutPayload(u.v)
	}
	if rec := n.cfg.Recorder; rec != nil {
		for _, xi := range n.ix.VarIDs(n.id) {
			if n.tags[xi].Writer < 0 {
				rec.RecordRecover(n.id, -1, -1, n.ix.Name(xi), mcs.BottomValue)
			}
		}
	}
}

// CrashRestart models the node rejoining after a crash with its
// volatile state lost: replicas revert to ⊥ and write tags, receive
// cursors and the out-of-order buffer are forgotten, to be re-learned
// from peer snapshots during Recover (mcs.CrashRestarter). The write
// counters survive — a restarted writer must not reuse sequence
// numbers its peers already applied. Incoming updates are held back
// until the snapshot merge restores the cursors.
func (n *Node) CrashRestart() {
	n.mu.Lock()
	for xi := range n.replicas {
		n.replicas.Set(xi, mcs.BottomValue)
		n.tags[xi] = mcs.WriteTag{Writer: -1}
	}
	for j := range n.next {
		for xi := range n.next[j] {
			n.next[j][xi] = 0
		}
	}
	for k, m := range n.buffered {
		for vseq, u := range m {
			mcs.PutPayload(u.v)
			delete(m, vseq)
		}
		delete(n.buffered, k)
	}
	for _, u := range n.held {
		mcs.PutPayload(u.v)
	}
	n.held = nil
	n.rejoining = true
	n.rcv.Cancel()
	n.rcf.CancelLocked()
	n.fence.LiftLocked()
	n.mu.Unlock()
}

// Recover starts the rejoin handshake with every variable-sharing
// neighbor under the current epoch's index (mcs.CrashRestarter) — the
// placement may have been reconfigured since the cluster started.
func (n *Node) Recover() {
	n.mu.Lock()
	peers := n.ix.Neighbors(n.id)
	n.mu.Unlock()
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

// ReconfigFlushLocked implements mcs.ReconfigHooks: the fence must
// travel behind every staged pre-fence update.
func (n *Node) ReconfigFlushLocked() { n.out.Flush() }

// ReconfigFenceLocked fences writes to the variables whose replica
// clique changes (mcs.ReconfigHooks).
func (n *Node) ReconfigFenceLocked(next *sharegraph.Index) {
	n.fence.ArmLocked(&n.mu, n.id, n.ix, next, false)
}

// ReconfigTransferVarsLocked lists the variables this node gains in the
// next epoch (mcs.ReconfigHooks).
func (n *Node) ReconfigTransferVarsLocked(next *sharegraph.Index) []int {
	return n.ix.Gained(next, n.id)
}

// RejoinVarsLocked lists the variables a rejoining peer shares with
// this node (mcs.StateCodec).
func (n *Node) RejoinVarsLocked(peer int, ids []int) []int {
	return n.ix.AppendShared(ids, n.id, peer)
}

// EncodeStateLocked writes, per written variable of varIDs, the last
// applied write's (writer, wseq) tag and value (mcs.StateCodec). A
// rejoin also carries the responder's per-sender receive cursors for
// the variable's clique — for its own stream the cursor is its write
// counter, everything it ever issued being reflected in its replica. A
// migration carries none: a gained variable's clique changed by
// definition, so its stream numbering restarts at zero on every clique
// member at the flip.
func (n *Node) EncodeStateLocked(enc *mcs.Enc, peer int, varIDs []int, how mcs.Transfer) (data int, vars []string) {
	countPos := enc.Len()
	enc.U32(0)
	count := 0
	for _, xi := range varIDs {
		t := n.tags[xi]
		if t.Writer < 0 {
			continue
		}
		enc.U32(uint32(t.Writer)).U32(uint32(t.WSeq))
		if how == mcs.Rejoin {
			cursors := 0
			cursorCountPos := enc.Len()
			enc.U32(0)
			for _, s := range n.ix.Clique(xi) {
				if s == peer {
					continue
				}
				cur := n.next[s][xi]
				if s == n.id {
					cur = n.vseq[xi]
				}
				enc.U32(uint32(s)).U32(uint32(cur))
				cursors++
			}
			enc.PatchU32(cursorCountPos, uint32(cursors))
		}
		v := n.replicas.Get(xi)
		enc.VarVal(xi, v)
		vars = append(vars, n.ix.Name(xi))
		data += len(v)
		count++
	}
	enc.PatchU32(countPos, uint32(count))
	return data, vars
}

// MergeStateLocked merges a peer's entries (mcs.StateCodec): receive
// cursors max-merge (the furthest view any responder reports bounds the
// stragglers worth replaying), values adopt unless the local tag
// already reflects a same-writer write at least as new. Migration
// entries let the slow witness raise its per-(sender, variable)
// frontier.
func (n *Node) MergeStateLocked(d *mcs.Dec, from int, how mcs.Transfer) error {
	type cursor struct{ sender, next int }
	var curs []cursor
	count := int(d.U32())
	for k := 0; k < count; k++ {
		w := int(d.U32())
		s := int(d.U32())
		curs = curs[:0]
		if how == mcs.Rejoin {
			cursors := int(d.U32())
			if err := d.Err(); err != nil {
				return err
			}
			for c := 0; c < cursors && d.Err() == nil; c++ {
				curs = append(curs, cursor{sender: int(d.U32()), next: int(d.U32())})
			}
		}
		xi, v := d.VarVal()
		if err := d.Err(); err != nil {
			return err
		}
		if xi < 0 || xi >= len(n.replicas) || w < 0 || w >= n.cfg.Net.NumNodes() {
			return fmt.Errorf("slowpart: entry names unknown VarID %d / writer %d", xi, w)
		}
		for _, c := range curs {
			if c.sender < 0 || c.sender >= len(n.next) {
				return fmt.Errorf("slowpart: cursor names unknown sender %d", c.sender)
			}
			if c.sender != n.id && c.next > n.next[c.sender][xi] {
				n.next[c.sender][xi] = c.next
			}
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

// ReconfigFlipLocked installs the next epoch: shed replicas revert to
// ⊥, the per-(sender, variable) stream numbering of every variable
// whose clique changed restarts at zero on writer and receiver alike
// (readiness certified that both drained the old epoch's streams, and
// a one-sided reset would wedge the stream when a variable returns to
// a clique it had left), gained variables no donor had a value for
// are recorded as ⊥ migration resets, the index swaps, outgoing
// frames carry the new epoch and the write fence lifts
// (mcs.ReconfigHooks).
func (n *Node) ReconfigFlipLocked(next *sharegraph.Index) {
	for _, xi := range n.ix.VarIDs(n.id) {
		if next.Holds(n.id, xi) {
			continue
		}
		n.replicas.Set(xi, mcs.BottomValue)
		n.tags[xi] = mcs.WriteTag{Writer: -1}
	}
	for xi := 0; xi < n.ix.NumVars(); xi++ {
		if sharegraph.SameClique(n.ix, next, xi) {
			continue
		}
		n.vseq[xi] = 0
		for j := range n.next {
			n.next[j][xi] = 0
		}
	}
	for k, m := range n.buffered {
		if next.Holds(n.id, k.varID) && sharegraph.SameClique(n.ix, next, k.varID) {
			continue
		}
		for vseq, u := range m {
			mcs.PutPayload(u.v)
			delete(m, vseq)
		}
		delete(n.buffered, k)
	}
	if rec := n.cfg.Recorder; rec != nil && !n.rejoining {
		for _, xi := range next.VarIDs(n.id) {
			if !n.ix.Holds(n.id, xi) && n.tags[xi].Writer < 0 {
				rec.RecordMigrate(n.id, -1, -1, n.ix.Name(xi), mcs.BottomValue)
			}
		}
	}
	n.ix = next
	n.out.SetEpoch(next.Epoch())
	n.fence.LiftLocked()
}

// ReconfigAbortLocked abandons the attempt: the fence lifts and the
// current epoch stays in force (mcs.ReconfigHooks).
func (n *Node) ReconfigAbortLocked() { n.fence.LiftLocked() }

var (
	_ mcs.Node           = (*Node)(nil)
	_ mcs.Flusher        = (*Node)(nil)
	_ mcs.Batcher        = (*Node)(nil)
	_ mcs.CrashRestarter = (*Node)(nil)
	_ mcs.ReconfigHooks  = (*Node)(nil)
)
