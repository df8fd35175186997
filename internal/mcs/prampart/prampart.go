// Package prampart implements the paper's headline construction (§5):
// a PRAM-consistent memory consistency system under partial replication
// that is *efficient* in the paper's sense — for every variable x, only
// the processes of C(x) ever send, receive or store information about
// x (Theorem 2).
//
// The protocol is the natural one enabled by Theorem 2:
//
//   - every node numbers its own writes with a per-sender sequence
//     counter;
//   - a write on x is multicast only to the other members of C(x),
//     carrying (wseq, x, value) with the writer identified by the
//     message source;
//   - channels are FIFO per ordered pair, so each node receives any
//     given sender's updates in that sender's program order and applies
//     them immediately on receipt;
//   - reads are wait-free on the local replica.
//
// Per-sender FIFO application yields PRAM consistency: all processes
// observe the writes of a given process in its program order, while no
// cross-sender ordering is enforced. The control information is O(1)
// per message and mentions no variable outside the replica set.
//
// The implementation makes the paper's O(1) control-bit claim concrete
// at the allocation level: variable names are interned into dense
// VarIDs at placement-index time, replicas live in a flat
// arena-backed mcs.Replicas store of byte-string values, and updates
// travel through a per-destination coalescing mcs.Outbox whose buffers
// are recycled by the receiving handler — a steady-state Get is
// 0 allocs/op (GetInto) and a small-value Put amortizes to well under
// one allocation (enforced by the allocation regression tests at the
// cluster level).
package prampart

import (
	"fmt"
	"sync"

	"partialdsm/internal/mcs"
	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
)

// KindUpdate is the protocol's only message kind: a batched frame of
// (U32 wseq, VarVal varID/value) records.
const KindUpdate = "pram.update"

// Node is one PRAM MCS process.
type Node struct {
	cfg mcs.Config
	id  int
	ix  *sharegraph.Index // current epoch's index; swapped under mu at a flip

	mu       sync.Mutex
	replicas mcs.Replicas   // by VarID, ⊥ until written
	tags     []mcs.WriteTag // by VarID: the write each replica holds
	wseq     int
	out      *mcs.Outbox

	// Crash-recovery state: while rejoining, steady-state updates are
	// held back and applied once the peer snapshots are merged, so a
	// pre-snapshot apply cannot be rolled backward by the merge.
	rcv       *mcs.Recovery
	rejoining bool
	held      []heldUpd

	// Epoch reconfiguration: writes to variables whose clique changes
	// park on the fence for the transition window.
	rcf   *mcs.Reconfig
	fence mcs.Fence
}

// heldUpd is one update received during the rejoin window; v is a
// pooled copy recycled when the update is applied (or dropped stale).
type heldUpd struct {
	from, wseq, varID int
	v                 []byte
}

// New instantiates one node per process and installs the network
// handlers. The caller drives node i's Read/Write from application
// goroutine i only.
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
			out:      mcs.NewOutbox(cfg.Net, i, KindUpdate, cfg.CoalesceBatch),
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

// Put performs w_i(x)v: local apply, then stage the update for every
// other member of C(x) (flushed per the coalescing policy). The value
// is fully staged before Put returns; the caller may reuse v.
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
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordWrite(n.id, name, v)
		rec.RecordApply(n.id, n.id, wseq, name, v)
	}
	n.replicas.Set(xi, v)
	n.tags[xi] = mcs.WriteTag{Writer: n.id, WSeq: wseq}
	enc := n.out.Stage()
	enc.U32(uint32(wseq)).VarVal(xi, v)
	n.out.Emit(n.ix.Peers(n.id, xi), n.ix.MsgVars(xi), enc.Len()-len(v), len(v))
	n.mu.Unlock()
	return nil
}

// PutAsync is Put: PRAM writes are wait-free, so completion is
// immediate.
func (n *Node) PutAsync(x string, v []byte) (mcs.Pending, error) {
	return mcs.Done, n.Put(x, v)
}

// Get performs r_i(x) wait-free on the local replica, appending the
// value to dst[:0]. Pending coalesced updates are flushed first, so a
// peer polling for this node's writes observes them after this node's
// next operation.
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
		n.cfg.Faultf(n.id, "prampart: node %d: unknown message kind %q", n.id, msg.Kind)
		mcs.RecycleFrame(msg)
	}
}

// handleUpdate applies a batched frame of remote updates in order:
// per-pair FIFO delivery already presents each sender's writes in
// program order. Malformed frames are reported through Config.Faultf
// and dropped — on a reliable network that panics (a correct peer
// never sends one), under fault injection the node keeps serving.
func (n *Node) handleUpdate(msg netsim.Message) {
	defer mcs.RecycleFrame(msg)
	d := mcs.DecOf(msg.Payload)
	count := int(d.U32())
	if d.Err() != nil {
		n.cfg.Faultf(n.id, "prampart: node %d: malformed frame from %d: %v", n.id, msg.From, d.Err())
		return
	}
	n.mu.Lock()
	for k := 0; k < count; k++ {
		wseq := int(d.U32())
		xi, v := d.VarVal()
		if err := d.Err(); err != nil {
			n.mu.Unlock()
			n.cfg.Faultf(n.id, "prampart: node %d: malformed update from %d: %v", n.id, msg.From, err)
			return
		}
		if xi < 0 || xi >= len(n.replicas) {
			n.mu.Unlock()
			n.cfg.Faultf(n.id, "prampart: node %d: update from %d names unknown VarID %d", n.id, msg.From, xi)
			return
		}
		if n.rejoining {
			n.held = append(n.held, heldUpd{from: msg.From, wseq: wseq, varID: xi, v: append(mcs.GetPayload(), v...)})
			continue
		}
		n.applyLocked(msg.From, wseq, xi, v)
	}
	n.mu.Unlock()
}

// applyLocked applies one remote update under the node lock, skipping
// writes the replica already reflects (an injected duplicate, or a
// pre-crash straggler delivered after the snapshot merge) and updates
// for variables this node does not serve — an old-epoch straggler for a
// shed variable, dropped; a first post-flip frame for a gained variable
// under the still-pending next epoch, admitted.
func (n *Node) applyLocked(from, wseq, xi int, v []byte) {
	if !n.ix.Holds(n.id, xi) && !n.rcf.PendingHoldsLocked(n.id, xi) {
		return
	}
	if n.tags[xi].Stale(from, wseq) {
		return
	}
	n.replicas.Set(xi, v)
	n.tags[xi] = mcs.WriteTag{Writer: from, WSeq: wseq}
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordApply(n.id, from, wseq, n.ix.Name(xi), v)
	}
}

// finishRejoinLocked closes the rejoin window (Recovery.OnDone, node
// lock held): updates held back during recovery are applied through
// the normal staleness rule, and variables no live peer knew a value
// for are recorded as ⊥ resets so the consistency checkers track the
// replica's observable restart.
func (n *Node) finishRejoinLocked() {
	n.rejoining = false
	held := n.held
	n.held = nil
	for _, u := range held {
		n.applyLocked(u.from, u.wseq, u.varID, u.v)
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

// CrashRestart models the node coming back from a crash with its
// volatile replica store lost: every replica reverts to ⊥ and its
// write tags are forgotten (mcs.CrashRestarter). The write-sequence
// counter survives — the paper's processes number their own writes,
// and a restarted writer must not reuse sequence numbers its peers
// have already applied. The node holds back incoming updates until
// Recover's snapshot merge completes.
func (n *Node) CrashRestart() {
	n.mu.Lock()
	for xi := range n.replicas {
		n.replicas.Set(xi, mcs.BottomValue)
		n.tags[xi] = mcs.WriteTag{Writer: -1}
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
// this node (mcs.StateCodec): Theorem 2 honesty carries over to
// recovery, the snapshot mentions no variable outside the requester's
// replica set.
func (n *Node) RejoinVarsLocked(peer int, ids []int) []int {
	return n.ix.AppendShared(ids, n.id, peer)
}

// EncodeStateLocked writes (writer, wseq, varID, value) per written
// variable of varIDs (mcs.StateCodec). PRAM has no recovery-only
// metadata: a rejoin and a migration carry the same body.
func (n *Node) EncodeStateLocked(enc *mcs.Enc, peer int, varIDs []int, how mcs.Transfer) (data int, vars []string) {
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

// MergeStateLocked adopts a peer's entries through the staleness rule
// of live updates, so entries the local state already reflects (from
// an earlier-merged peer with a newer view) are skipped
// (mcs.StateCodec). A migration entry seeds the PRAM witness's replica
// view without raising any per-sender frontier.
func (n *Node) MergeStateLocked(d *mcs.Dec, from int, how mcs.Transfer) error {
	count := int(d.U32())
	for k := 0; k < count; k++ {
		w := int(d.U32())
		s := int(d.U32())
		xi, v := d.VarVal()
		if err := d.Err(); err != nil {
			return err
		}
		if xi < 0 || xi >= len(n.replicas) || w < 0 || w >= n.cfg.Net.NumNodes() {
			return fmt.Errorf("prampart: entry names unknown VarID %d / writer %d", xi, w)
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
// ⊥, gained variables no donor had a value for are recorded as ⊥
// migration resets, the index swaps, outgoing frames carry the new
// epoch and the write fence lifts (mcs.ReconfigHooks).
func (n *Node) ReconfigFlipLocked(next *sharegraph.Index) {
	for _, xi := range n.ix.VarIDs(n.id) {
		if !next.Holds(n.id, xi) {
			n.replicas.Set(xi, mcs.BottomValue)
			n.tags[xi] = mcs.WriteTag{Writer: -1}
		}
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
