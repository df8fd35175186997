// Package causalpart implements causal consistency under partial
// replication — the configuration the paper proves cannot be efficient
// (§3): to preserve causality across hoops, control information about a
// variable must reach processes that do not replicate it.
//
// # Protocol
//
// Values travel only to the replica clique C(x), but every write also
// fans out a control notification, and every message piggybacks a
// dependency list of per-(writer, variable) counters describing the
// causal past of the write:
//
//   - each node tracks cnt[j][y], the number of j's writes to y whose
//     notifications it has delivered, for every variable y it is
//     notified about;
//   - a write by i on x is sent to a notification set N(x) ⊇ C(x);
//     the copy for receiver r carries the entries (j, y, cnt[j][y]) for
//     variables y in both i's and r's notification interest — the
//     control information about *other* variables the paper's
//     Theorem 1 shows is unavoidable;
//   - receiver r delivers the write once its own counters dominate the
//     dependency list (exact match on the writer's own (i,x) stream,
//     ≥ elsewhere), applies the value if r ∈ C(x), and bumps cnt[i][x].
//
// Dependency domination makes every node's delivery order a linear
// extension of the causality order restricted to the writes it sees
// (validated against check.WitnessCausal), because every causal chain
// between two operations on variables of interest runs through
// processes that are themselves notified of the dependency — the
// constructive reading of Theorem 1's sufficiency proof.
//
// # Modes
//
// ModeBroadcast notifies every node of every write: the general-
// distribution case ("any process is likely to belong to any hoop",
// §3.3). The touch matrix becomes all-ones and control volume grows
// with the whole system.
//
// ModeHoopAware exploits a statically known distribution: write
// notifications for x go only to the x-relevant processes of Theorem 1
// (C(x) plus all x-hoop members), and dependency entries are pruned to
// variables relevant to both endpoints. This is the "ad-hoc
// implementation … optimally designed" the paper sketches in §3.3:
// still causal, but information about x never reaches x-irrelevant
// processes.
//
// # Hot path
//
// Variables are interned VarIDs throughout; the per-receiver dependency
// list is encoded in a single pass straight into the coalescing
// outboxes (one for value updates, one for notifications), and the
// receive path checks dependency domination while decoding, copying a
// record's raw bytes into the pending buffer only when it cannot be
// delivered yet.
package causalpart

import (
	"fmt"
	"sync"

	"partialdsm/internal/mcs"
	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
)

// Message kinds. Updates carry the written value (to C(x)),
// notifications carry control information only (to N(x) ∖ C(x)). Both
// are batched frames of records
// (U32 wseq, U32 varID, OptVal value, U32 nDeps,
// nDeps × (U32 writer, U32 varID, U32 count)).
const (
	KindUpdate = "causalpart.update"
	KindNotify = "causalpart.notify"
)

// Mode selects the notification strategy.
type Mode int

const (
	// ModeBroadcast notifies every node of every write.
	ModeBroadcast Mode = iota
	// ModeHoopAware notifies exactly the x-relevant processes of
	// Theorem 1, using the statically known share graph.
	ModeHoopAware
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeHoopAware {
		return "hoop-aware"
	}
	return "broadcast"
}

// pendingRec is a buffered undeliverable record: the raw wire bytes
// (pool-backed) plus the sending writer.
type pendingRec struct {
	writer int
	raw    []byte
}

// Node is one causal partial-replication MCS process.
type Node struct {
	cfg  mcs.Config
	mode Mode
	id   int
	ix   *sharegraph.Index

	// Relevance tables for the current epoch; an epoch flip replaces
	// them wholesale (never mutates — epoch 0's tables are shared
	// across nodes), so reads belong under mu.
	interest []bool   // interest[y] — this node is in N(vars[y])
	relOf    [][]bool // relOf[y][p] — p is in N(vars[y])
	notifies [][]int  // VarID → N(x) minus self

	mu       sync.Mutex
	replicas mcs.Replicas   // by VarID
	tags     []mcs.WriteTag // by VarID: last applied write (for snapshots)
	wseq     int
	cnt      [][]uint32 // cnt[j][y]: delivered writes of j to vars[y]
	pending  []pendingRec
	names    []string // per-write scratch for the touch list

	rcv       *mcs.Recovery
	rejoining bool

	// Epoch reconfiguration: dependency lists entangle every variable,
	// so the fence covers all writes for the transition window.
	rcf   *mcs.Reconfig
	fence mcs.Fence

	outUpd *mcs.Outbox
	outNtf *mcs.Outbox
}

// relevanceOf computes the per-variable notification sets N(x) for an
// index: every process in broadcast mode, the x-relevant processes of
// Theorem 1 in hoop-aware mode. Epoch flips call it against the next
// index to rebuild the tables under the new placement.
func relevanceOf(ix *sharegraph.Index, mode Mode) [][]bool {
	n := ix.NumProcs()
	relOf := make([][]bool, ix.NumVars())
	var pl *sharegraph.Placement
	if mode == ModeHoopAware {
		pl = ix.AsPlacement()
	}
	for yi := range relOf {
		relOf[yi] = make([]bool, n)
		if mode == ModeHoopAware {
			for _, p := range pl.XRelevant(ix.Name(yi)) {
				relOf[yi][p] = true
			}
		} else {
			for p := 0; p < n; p++ {
				relOf[yi][p] = true
			}
		}
	}
	return relOf
}

// nodeTables derives one node's interest vector and notification lists
// from the per-variable relevance sets.
func nodeTables(relOf [][]bool, id int) (interest []bool, notifies [][]int) {
	interest = make([]bool, len(relOf))
	notifies = make([][]int, len(relOf))
	for yi := range relOf {
		interest[yi] = relOf[yi][id]
		for p, in := range relOf[yi] {
			if p != id && in {
				notifies[yi] = append(notifies[yi], p)
			}
		}
	}
	return interest, notifies
}

// New instantiates the nodes and installs handlers.
func New(cfg mcs.Config, mode Mode) ([]*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mode != ModeBroadcast && mode != ModeHoopAware {
		return nil, fmt.Errorf("causalpart: unknown mode %d", mode)
	}
	ix := cfg.Placement.Index()
	n := ix.NumProcs()
	numVars := ix.NumVars()
	relOf := relevanceOf(ix, mode)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node := &Node{
			cfg:      cfg,
			mode:     mode,
			id:       i,
			ix:       ix,
			relOf:    relOf,
			replicas: mcs.NewReplicas(numVars),
			tags:     mcs.NewWriteTags(numVars),
			cnt:      make([][]uint32, n),
			outUpd:   mcs.NewOutbox(cfg.Net, i, KindUpdate, cfg.CoalesceBatch),
			outNtf:   mcs.NewOutbox(cfg.Net, i, KindNotify, cfg.CoalesceBatch),
		}
		for j := range node.cnt {
			node.cnt[j] = make([]uint32, numVars)
		}
		node.interest, node.notifies = nodeTables(relOf, i)
		node.rcv = mcs.NewRecovery(cfg, i, &node.mu, node)
		node.rcv.OnDone = node.finishRejoinLocked
		node.rcf = mcs.NewReconfig(cfg, i, &node.mu, node, ix)
		cfg.ApplyFlushPolicy(&node.mu, node.outUpd, node.outNtf)
		nodes[i] = node
		cfg.Net.SetHandler(i, node.handle)
	}
	return nodes, nil
}

// ID returns the node identifier.
func (n *Node) ID() int { return n.id }

// Write performs w_i(x)v: apply locally, then stage updates to C(x)
// and notifications to the rest of N(x), each carrying the dependency
// list pruned to the receiver's interest.
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
	for _, r := range n.notifies[xi] {
		hasValue := n.ix.Holds(r, xi)
		out := n.outNtf
		if hasValue {
			out = n.outUpd
		}
		enc := out.Stage()
		enc.U32(uint32(wseq)).U32(uint32(xi))
		data := 0
		if hasValue {
			enc.OptVal(v, true)
			data = len(v)
		} else {
			enc.OptVal(nil, false)
		}
		n.encodeDepsLocked(enc, r, xi)
		ctrl := enc.Len() - data
		out.AddToVars(r, n.names, ctrl, data)
	}
	// Count the new write after building the dependency lists: the
	// lists describe its causal past, excluding itself.
	n.cnt[n.id][xi]++
	n.mu.Unlock()
	return nil
}

// PutAsync is Put: causal partial-replication writes are wait-free.
func (n *Node) PutAsync(x string, v []byte) (mcs.Pending, error) {
	return mcs.Done, n.Put(x, v)
}

// encodeDepsLocked appends receiver r's dependency list for a write on
// vars[xi] to enc: every nonzero counter (j, y) with y in both
// endpoints' interest, plus the writer's own (i, xi) stream entry
// (always present, possibly zero — it sequences the stream). It leaves
// the variables the record mentions in n.names (scratch, reused per
// receiver).
func (n *Node) encodeDepsLocked(enc *mcs.Enc, r, xi int) {
	countPos := enc.Len()
	enc.U32(0) // dependency count, patched below
	n.names = append(n.names[:0], n.ix.Name(xi))
	deps := 0
	for j := range n.cnt {
		for yi, c := range n.cnt[j] {
			if j == n.id && yi == xi {
				continue // own stream entry added explicitly below
			}
			if c == 0 || !n.interest[yi] || !n.relOf[yi][r] {
				continue
			}
			enc.U32(uint32(j)).U32(uint32(yi)).U32(c)
			deps++
			n.names = append(n.names, n.ix.Name(yi))
		}
	}
	enc.U32(uint32(n.id)).U32(uint32(xi)).U32(n.cnt[n.id][xi])
	deps++
	enc.PatchU32(countPos, uint32(deps))
}

// Get performs r_i(x) wait-free on the local replica, flushing any
// coalesced messages first.
func (n *Node) Get(x string, dst []byte) ([]byte, error) {
	n.mu.Lock()
	xi := n.ix.ID(x)
	if !n.ix.Holds(n.id, xi) {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: node %d, variable %s", mcs.ErrNotReplicated, n.id, x)
	}
	if n.outUpd.HasPending() || n.outNtf.HasPending() {
		n.outUpd.Flush()
		n.outNtf.Flush()
	}
	dst = append(dst[:0], n.replicas.Get(xi)...)
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordRead(n.id, n.ix.Name(xi), dst)
	}
	n.mu.Unlock()
	// A polling reader drives buffered writers' flush deadlines (one
	// nudge covers both outboxes — they share the transport clock).
	n.outUpd.Nudge()
	return dst, nil
}

// BeginBatch suspends flushing on both outboxes (mcs.Batcher).
func (n *Node) BeginBatch() {
	n.mu.Lock()
	n.outUpd.Hold()
	n.outNtf.Hold()
	n.mu.Unlock()
}

// EndBatch flushes everything staged since BeginBatch (mcs.Batcher).
func (n *Node) EndBatch() {
	n.mu.Lock()
	n.outUpd.Release()
	n.outNtf.Release()
	n.mu.Unlock()
}

// FlushUpdates sends all buffered messages (mcs.Flusher).
func (n *Node) FlushUpdates() {
	n.mu.Lock()
	n.outUpd.Flush()
	n.outNtf.Flush()
	n.mu.Unlock()
}

// handle dispatches on message kind: steady-state update/notify frames
// plus the two crash-recovery kinds.
func (n *Node) handle(msg netsim.Message) {
	switch msg.Kind {
	case KindUpdate, KindNotify:
		n.handleFrame(msg)
	case mcs.KindSnapReq, mcs.KindSnapResp:
		n.rcv.Handle(msg)
	default:
		if mcs.IsEpochKind(msg.Kind) {
			n.rcf.Handle(msg)
			return
		}
		n.cfg.Faultf(n.id, "causalpart: node %d: unknown message kind %q", n.id, msg.Kind)
		mcs.RecycleFrame(msg)
	}
}

// handleFrame processes a batched frame: each record is checked for
// dependency domination while it is decoded; deliverable records apply
// immediately (then drain the pending set), stale ones — already
// counted duplicates or snapshot-covered pre-crash stragglers — are
// dropped, and the rest are copied into the pending buffer. During a
// rejoin window every record pends: the counters are being re-learned
// from peer snapshots.
func (n *Node) handleFrame(msg netsim.Message) {
	defer mcs.RecycleFrame(msg)
	d := mcs.DecOf(msg.Payload)
	count := int(d.U32())
	if d.Err() != nil {
		n.cfg.Faultf(n.id, "causalpart: node %d: malformed frame from %d: %v", n.id, msg.From, d.Err())
		return
	}
	n.mu.Lock()
	for k := 0; k < count; k++ {
		start := len(msg.Payload) - d.Rest()
		applied, stale, faulted := n.tryRecordLocked(&d, msg.From)
		if faulted {
			// tryRecordLocked already reported; drop the rest of the frame.
			n.mu.Unlock()
			return
		}
		if err := d.Err(); err != nil {
			n.mu.Unlock()
			n.cfg.Faultf(n.id, "causalpart: node %d: malformed record from %d: %v", n.id, msg.From, err)
			return
		}
		switch {
		case applied:
			n.drainLocked()
		case stale:
			// Already reflected; nothing to buffer.
		default:
			end := len(msg.Payload) - d.Rest()
			raw := append(mcs.GetPayload(), msg.Payload[start:end]...)
			n.pending = append(n.pending, pendingRec{writer: msg.From, raw: raw})
		}
	}
	n.mu.Unlock()
}

// tryRecordLocked decodes one record written by writer and applies it
// when its dependency list is dominated by the local counters, bumping
// cnt[writer][x]. A record whose own-stream counter is below the local
// one is stale — an injected duplicate, or a pre-crash straggler a
// snapshot merge already counted — and must be dropped, not buffered.
// It always consumes exactly one record from d; the caller checks
// d.Err. A record naming out-of-range ids is reported through
// Config.Faultf (under the node lock — the sink must not call back
// into the node) and flagged faulted; the caller drops it.
func (n *Node) tryRecordLocked(d *mcs.Dec, writer int) (applied, stale, faulted bool) {
	wseq := int(d.U32())
	xi := int(d.U32())
	v, hasValue := d.OptVal()
	nDeps := int(d.U32())
	if d.Err() != nil {
		return false, false, false
	}
	if writer < 0 || writer >= len(n.cnt) || xi < 0 || xi >= n.ix.NumVars() {
		n.cfg.Faultf(n.id, "causalpart: node %d: record from %d out of range (writer %d, VarID %d)",
			n.id, writer, writer, xi)
		return false, false, true
	}
	ok := true
	for k := 0; k < nDeps; k++ {
		dw := int(d.U32())
		dy := int(d.U32())
		dc := d.U32()
		if d.Err() != nil {
			return false, false, false
		}
		if dw < 0 || dw >= len(n.cnt) || dy < 0 || dy >= n.ix.NumVars() {
			n.cfg.Faultf(n.id, "causalpart: node %d: dependency from %d out of range (%d, %d)",
				n.id, writer, dw, dy)
			return false, false, true
		}
		local := n.cnt[dw][dy]
		if dw == writer && dy == xi {
			// In-order delivery per (writer, variable) stream.
			if !n.rejoining && dc < local {
				stale = true
			}
			if local != dc {
				ok = false
			}
		} else if local < dc {
			ok = false
		}
	}
	if stale {
		return false, true, false
	}
	if n.rejoining || !ok {
		return false, false, false
	}
	n.cnt[writer][xi]++
	// The sender flagged the value for our *sender-side* view of C(x);
	// across an epoch flip that view can disagree with ours. Count the
	// delivery either way, but install the value only if we replicate
	// the variable under the current epoch or the pending one — an
	// old-epoch straggler for a shed variable must not resurrect state
	// the flip wiped.
	if hasValue && (n.ix.Holds(n.id, xi) || n.rcf.PendingHoldsLocked(n.id, xi)) {
		n.replicas.Set(xi, v)
		n.tags[xi] = mcs.WriteTag{Writer: writer, WSeq: wseq}
		if rec := n.cfg.Recorder; rec != nil {
			rec.RecordApply(n.id, writer, wseq, n.ix.Name(xi), v)
		}
	}
	return true, false, false
}

// drainLocked delivers pending records until a fixpoint, discarding
// stale ones. Pending records passed tryRecordLocked's range checks
// before they were buffered, so a faulted retry cannot happen; it is
// still handled (the record is discarded) to keep the drop-on-fault
// contract local.
func (n *Node) drainLocked() {
	for progress := true; progress; {
		progress = false
		for i := 0; i < len(n.pending); i++ {
			pd := mcs.DecOf(n.pending[i].raw)
			applied, stale, faulted := n.tryRecordLocked(&pd, n.pending[i].writer)
			if !applied && !stale && !faulted {
				continue
			}
			mcs.PutPayload(n.pending[i].raw)
			n.pending = append(n.pending[:i], n.pending[i+1:]...)
			progress = true
			i--
		}
	}
}

// finishRejoinLocked closes the rejoin window (Recovery.OnDone, node
// lock held): pending records re-evaluate against the merged counters
// — snapshot-covered stragglers drop as stale, deliverable ones apply
// — and variables no live peer knew a value for are recorded as ⊥
// resets.
func (n *Node) finishRejoinLocked() {
	n.rejoining = false
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
// and every *other* process's counter rows are forgotten, to be
// re-learned from peer snapshots during Recover (mcs.CrashRestarter).
// The node's own counter row is its per-variable write numbering and
// survives — receivers sequence its streams by exact match, so a
// restarted writer must not reuse stream positions. Incoming records
// pend until the snapshot merge rebuilds the counters.
func (n *Node) CrashRestart() {
	n.mu.Lock()
	for xi := range n.replicas {
		n.replicas.Set(xi, mcs.BottomValue)
		n.tags[xi] = mcs.WriteTag{Writer: -1}
	}
	for j := range n.cnt {
		if j == n.id {
			continue
		}
		for yi := range n.cnt[j] {
			n.cnt[j][yi] = 0
		}
	}
	for _, u := range n.pending {
		mcs.PutPayload(u.raw)
	}
	n.pending = n.pending[:0]
	n.rejoining = true
	n.rcv.Cancel()
	n.rcf.CancelLocked()
	n.fence.LiftLocked()
	n.mu.Unlock()
}

// Recover starts the rejoin handshake (mcs.CrashRestarter): every node
// sharing notification interest with this one is a snapshot peer — in
// broadcast mode all of them, hoop-aware only the relevant ones, under
// the current epoch's tables.
func (n *Node) Recover() {
	numNodes := len(n.cnt)
	peerSet := make([]bool, numNodes)
	n.mu.Lock()
	for yi, in := range n.interest {
		if !in {
			continue
		}
		for p := 0; p < numNodes; p++ {
			if p != n.id && n.relOf[yi][p] {
				peerSet[p] = true
			}
		}
	}
	n.mu.Unlock()
	var peers []int
	for p, in := range peerSet {
		if in {
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

// ReconfigFlushLocked implements mcs.ReconfigHooks: the fence must
// travel behind every staged pre-fence update and notification.
func (n *Node) ReconfigFlushLocked() {
	n.outUpd.Flush()
	n.outNtf.Flush()
}

// ReconfigFenceLocked fences every write for the transition window
// (mcs.ReconfigHooks). Partial fencing would be unsound here: an
// unfenced write's dependency list can entangle any variable of shared
// interest, so a donor's counter columns are final only once no write
// at all is in flight — which the global fence plus the per-pair FIFO
// fence barrier guarantees.
func (n *Node) ReconfigFenceLocked(next *sharegraph.Index) {
	n.fence.ArmLocked(&n.mu, n.id, n.ix, next, true)
}

// ReconfigTransferVarsLocked lists the variables whose state this node
// needs from old-epoch holders: the ones it gains a replica of, plus —
// causal memory's extra burden — the ones that newly enter its
// notification interest, whose delivery counters it must seed before
// new-epoch dependency lists can ever dominate (mcs.ReconfigHooks).
func (n *Node) ReconfigTransferVarsLocked(next *sharegraph.Index) []int {
	nextRel := relevanceOf(next, n.mode)
	var need []int
	for yi := 0; yi < next.NumVars(); yi++ {
		gained := next.Holds(n.id, yi) && !n.ix.Holds(n.id, yi)
		interested := nextRel[yi][n.id] && !n.interest[yi]
		if gained || interested {
			need = append(need, yi)
		}
	}
	return need
}

// RejoinVarsLocked lists every variable both nodes are notified about
// (mcs.StateCodec): recovery traffic stays within the requester's
// notification interest, so hoop-aware recovery respects the same
// relevance bound (Theorem 1) as steady-state notifications.
func (n *Node) RejoinVarsLocked(peer int, ids []int) []int {
	for yi, in := range n.interest {
		if in && n.relOf[yi][peer] {
			ids = append(ids, yi)
		}
	}
	return ids
}

// EncodeStateLocked writes the counter columns of varIDs — every
// nonzero (writer, VarID, count), writer-major — then the tagged value
// of each of them both nodes replicate: under the current epoch for a
// rejoin, the peer under the pending one for a migration
// (mcs.StateCodec). At a migration's fence barrier the counters are the
// senders' total write counts, identical on every live old-epoch
// holder.
func (n *Node) EncodeStateLocked(enc *mcs.Enc, peer int, varIDs []int, how mcs.Transfer) (data int, vars []string) {
	peerIx := n.ix
	if how == mcs.Migration {
		peerIx = n.rcf.PendingIndexLocked()
	}
	hasValue := func(yi int) bool {
		return n.tags[yi].Writer >= 0 && n.ix.Holds(n.id, yi) && peerIx.Holds(peer, yi)
	}
	cntPos := enc.Len()
	enc.U32(0)
	nCnt := 0
	for j := range n.cnt {
		for _, yi := range varIDs {
			if c := n.cnt[j][yi]; c > 0 {
				enc.U32(uint32(j)).U32(uint32(yi)).U32(c)
				nCnt++
			}
		}
	}
	enc.PatchU32(cntPos, uint32(nCnt))
	valPos := enc.Len()
	enc.U32(0)
	nVals := 0
	for _, yi := range varIDs {
		if !hasValue(yi) {
			continue
		}
		t := n.tags[yi]
		v := n.replicas.Get(yi)
		enc.U32(uint32(t.Writer)).U32(uint32(t.WSeq)).VarVal(yi, v)
		data += len(v)
		nVals++
	}
	enc.PatchU32(valPos, uint32(nVals))
	for _, yi := range varIDs {
		mentioned := hasValue(yi)
		for j := 0; j < len(n.cnt) && !mentioned; j++ {
			mentioned = n.cnt[j][yi] > 0
		}
		if mentioned {
			vars = append(vars, n.ix.Name(yi))
		}
	}
	return data, vars
}

// MergeStateLocked merges a peer's body (mcs.StateCodec): counter
// columns max-merge (the receiver's causal view now covers everything
// the peer had delivered, and in-flight old-epoch stragglers drop as
// stale), values adopt unless the local tag already reflects a
// same-writer write at least as new.
//
// On a rejoin, counters for a variable this node replicates only merge
// from peers that also replicate it. A notify-interest peer counts
// writer streams it holds no value for, so its snapshot can be "newer"
// than the newest value any co-holder offered — adopting that counter
// would make the co-holder's in-flight update for the same stream
// position drain as a stale duplicate and pin the replica at the old
// value forever (the retransmit layer never redelivers an acked frame).
// A co-holder's counter cannot tear this way: it advances atomically
// with the value application it describes, and the same snapshot frame
// carries that value. A migration donor is barrier-complete, so its
// counters cannot tear either; seeded counters may make buffered
// records deliverable.
func (n *Node) MergeStateLocked(d *mcs.Dec, from int, how mcs.Transfer) error {
	nCnt := int(d.U32())
	for k := 0; k < nCnt; k++ {
		j := int(d.U32())
		yi := int(d.U32())
		c := d.U32()
		if err := d.Err(); err != nil {
			return err
		}
		if j < 0 || j >= len(n.cnt) || yi < 0 || yi >= n.ix.NumVars() {
			return fmt.Errorf("causalpart: counter names unknown writer %d / VarID %d", j, yi)
		}
		torn := how == mcs.Rejoin && n.ix.Holds(n.id, yi) && !n.ix.Holds(from, yi)
		if j != n.id && c > n.cnt[j][yi] && !torn {
			n.cnt[j][yi] = c
		}
	}
	nVals := int(d.U32())
	for k := 0; k < nVals; k++ {
		w := int(d.U32())
		s := int(d.U32())
		xi, v := d.VarVal()
		if err := d.Err(); err != nil {
			return err
		}
		if xi < 0 || xi >= n.ix.NumVars() || w < 0 || w >= len(n.cnt) {
			return fmt.Errorf("causalpart: entry names unknown VarID %d / writer %d", xi, w)
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
	if err := d.Err(); err != nil {
		return err
	}
	if how == mcs.Migration {
		n.drainLocked()
	}
	return nil
}

// ReconfigFlipLocked installs the next epoch: shed replicas revert to
// ⊥ (delivery counters survive — a later re-gain max-merges them back
// up from a settled donor), gained variables no donor had a value for
// are recorded as ⊥ migration resets, the relevance tables rebuild for
// the new placement, the index swaps, outgoing frames carry the new
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
	n.relOf = relevanceOf(next, n.mode)
	n.interest, n.notifies = nodeTables(n.relOf, n.id)
	n.ix = next
	n.outUpd.SetEpoch(next.Epoch())
	n.outNtf.SetEpoch(next.Epoch())
	n.fence.LiftLocked()
}

// ReconfigAbortLocked abandons the attempt: the fence lifts and the
// current epoch stays in force; any counters merged so far are totals a
// future transfer would max-merge past (mcs.ReconfigHooks).
func (n *Node) ReconfigAbortLocked() { n.fence.LiftLocked() }

var (
	_ mcs.Node           = (*Node)(nil)
	_ mcs.Flusher        = (*Node)(nil)
	_ mcs.Batcher        = (*Node)(nil)
	_ mcs.CrashRestarter = (*Node)(nil)
	_ mcs.ReconfigHooks  = (*Node)(nil)
)
