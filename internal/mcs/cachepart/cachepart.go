// Package cachepart implements cache consistency (Goodman) — per-
// variable sequential consistency — under partial replication, as an
// exploration of the paper's §7 open question: whether criteria other
// than (and in places stronger than) PRAM admit efficient partial-
// replication implementations.
//
// Cache consistency is incomparable with PRAM: it totally orders all
// operations on each single variable (stronger than PRAM's per-sender
// guarantee on that axis) but imposes nothing across variables (weaker
// than PRAM's program order). Crucially, its synchronization is
// per-variable, so it *is* efficient in the paper's sense: every
// message about x stays inside C(x).
//
// Protocol: x's owner under the placement epoch — the lowest member of
// C(x) unless pinned elsewhere — acts as x's sequencer. A write on x
// travels to the sequencer, receives a per-variable sequence number
// and is multicast to C(x); replicas apply each variable's updates in
// sequence order; the writer blocks until its own update is applied
// locally (per-variable read-your-writes, which makes each variable's
// projection sequentially consistent with local wait-free reads).
// Reads are local.
//
// The sequencer role migrates through the epoch reconfiguration
// handshake. Requests for an assignment-changed variable park — at the
// writer behind the fence, and at the old sequencer once it armed its
// own fence, so no update is ever multicast behind the sequencer's
// fence frame. The fence barrier therefore leaves every live clique
// member with the variable's complete old-epoch stream applied, the
// per-variable numbering restarts at zero cluster-wide, and the parked
// requests re-enter — re-sequenced by the node that kept ownership, or
// forwarded (with the original writer's identity) to the node that
// gained it. Updates carry the sequencer's epoch as transport
// metadata; a receiver that sees a future epoch parks the update until
// its own commit arrives.
//
// Writes block on a round trip, so updates are not coalesced; all
// per-variable state lives in flat arrays indexed by interned VarIDs
// and the single-destination request payload is recycled by the
// sequencer.
package cachepart

import (
	"fmt"
	"sync"

	"partialdsm/internal/mcs"
	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
)

// Message kinds. A request is (U32 wseq, VarVal varID/value) with the
// writer identified by the message source; an update is
// (U32 seq, U32 writer, U32 wseq, VarVal varID/value). A forward is a
// request re-routed across an ownership move — (U32 writer, U32 wseq,
// VarVal varID/value) — carrying the original writer explicitly.
const (
	KindRequest = "cache.request" // writer → variable sequencer
	KindUpdate  = "cache.update"  // sequencer → C(x)
	KindForward = "cache.forward" // ex-sequencer → current sequencer
)

// bufferedUpd is an out-of-order per-variable update; v is a pooled
// copy of the value bytes, recycled at apply.
type bufferedUpd struct {
	writer int
	wseq   int
	v      []byte
}

// heldReq is a write request parked across an epoch transition: at the
// old sequencer (arrived after it fenced the variable) or at the new
// one (arrived before its own commit). v is a pooled copy.
type heldReq struct {
	writer int
	wseq   int
	xi     int
	v      []byte
}

// futureUpd is an update multicast under an epoch this node has not
// committed yet — the sequencer flipped first. Parked until the commit
// arrives. v is a pooled copy.
type futureUpd struct {
	epoch  uint64
	seq    int
	writer int
	wseq   int
	xi     int
	v      []byte
}

// Node is one cache-consistent MCS process.
type Node struct {
	cfg mcs.Config
	id  int

	mu       sync.Mutex
	ix       *sharegraph.Index // current epoch's index; swapped under mu at a flip
	replicas mcs.Replicas      // by VarID
	tags     []mcs.WriteTag    // by VarID: last applied write (for snapshots)
	wseq     int
	nextSeq  []int                 // next per-variable sequence to apply, by VarID
	buffered []map[int]bufferedUpd // by VarID; maps lazily allocated
	// ownDone is, per VarID, the settle cursor for this node's own
	// writes: own writes with wseq below it have taken local effect —
	// applied by the drain, or covered by an adopted snapshot prefix.
	// Keyed to the global write counter (which the update wire format
	// carries) rather than a count of apply events, it is idempotent
	// under fault-layer duplicates and across recovery windows.
	ownDone []int
	applied *sync.Cond

	rcv       *mcs.Recovery
	rejoining bool

	// Epoch reconfiguration: sequencer handoff state.
	rcf      *mcs.Reconfig
	fence    mcs.Fence
	heldReqs []heldReq   // requests parked across the transition window
	futures  []futureUpd // updates from an epoch ahead of this node's

	// Sequencer state: next sequence per owned VarID. Durable across the
	// sequencer's own crashes — the counters cannot be reconstructed
	// from replicas (in-flight multicasts may outrun every peer's apply
	// cursor), and a reused sequence number would fork a variable's
	// total order. An epoch flip that changes a variable's assignment
	// resets its counter cluster-wide instead: readiness certified that
	// every live clique member drained the old stream in full.
	vseq []int
}

// New instantiates the nodes and installs handlers.
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
			nextSeq:  make([]int, ix.NumVars()),
			buffered: make([]map[int]bufferedUpd, ix.NumVars()),
			ownDone:  make([]int, ix.NumVars()),
			vseq:     make([]int, ix.NumVars()),
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

// ownerLocked resolves x's sequencer under the current epoch. Called
// with mu held.
func (n *Node) ownerLocked(xi int) (int, error) {
	own := n.ix.Owner(xi)
	if own < 0 {
		return 0, fmt.Errorf("%w: variable %s has no replicas", mcs.ErrNotReplicated, n.ix.Name(xi))
	}
	return own, nil
}

// issueLocked records and sends one write request to x's sequencer,
// returning the write's per-process sequence number. Called with mu
// held, and the send happens with mu still held: the engine's fence
// frames go out under the same lock, so a request that passed the
// fence check always precedes this writer's fence on the channel.
func (n *Node) issueLocked(xi, own int, v []byte) (wseq int) {
	wseq = n.wseq
	n.wseq++
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordWrite(n.id, n.ix.Name(xi), v)
	}
	var enc mcs.Enc
	enc.SetBuf(mcs.GetPayload())
	enc.U32(uint32(wseq)).VarVal(xi, v)
	payload := enc.Bytes()
	n.cfg.Net.Send(netsim.Message{
		From: n.id, To: own, Kind: KindRequest,
		Payload: payload, CtrlBytes: len(payload) - len(v), DataBytes: len(v),
		Vars: n.ix.MsgVars(xi), Epoch: n.ix.Epoch(),
	})
	return wseq
}

// beginWrite resolves the write's variable and sequencer under the
// fence: a write to an assignment-changed variable parks until the
// epoch transition resolves, then routes under the (possibly new)
// epoch. Returns with mu HELD on success.
func (n *Node) beginWrite(x string) (xi, own int, err error) {
	n.mu.Lock()
	xi = n.ix.ID(x)
	if err := n.fence.WaitLocked(n.cfg, n.id, xi, x); err != nil {
		n.mu.Unlock()
		return 0, 0, err
	}
	// Re-check against the possibly flipped index: the fence lifts at
	// the epoch boundary, and this node may have shed the variable.
	if !n.ix.Holds(n.id, xi) {
		n.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: node %d, variable %s", mcs.ErrNotReplicated, n.id, x)
	}
	own, err = n.ownerLocked(xi)
	if err != nil {
		n.mu.Unlock()
		return 0, 0, err
	}
	return xi, own, nil
}

// Put performs w_i(x)v: route through x's sequencer, block until the
// update is applied locally.
func (n *Node) Put(x string, v []byte) error {
	xi, own, err := n.beginWrite(x)
	if err != nil {
		return err
	}
	wseq := n.issueLocked(xi, own, v)
	// Block until this write has taken local effect, so the process's
	// operations on x serialize in program order.
	defer n.mu.Unlock()
	if n.cfg.OpDeadlineTicks > 0 {
		return n.cfg.WaitDeadline(n.id, n.applied,
			func() bool { return n.ownDone[xi] > wseq },
			func() string { return fmt.Sprintf("cachepart: node %d write #%d to %s", n.id, wseq, x) })
	}
	for n.ownDone[xi] <= wseq {
		n.applied.Wait()
	}
	return nil
}

// pending is an outstanding asynchronous write on one variable: it
// completes when the write has taken local effect — exactly where the
// synchronous Put would have returned. Requests reach x's sequencer in
// issue order (per-pair FIFO), so outstanding writes on one variable
// complete in issue order.
type pending struct {
	n     *Node
	varID int
	wseq  int
}

// Wait blocks until the write is applied locally.
func (p *pending) Wait() error {
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cfg.OpDeadlineTicks > 0 {
		return n.cfg.WaitDeadline(n.id, n.applied,
			func() bool { return n.ownDone[p.varID] > p.wseq },
			func() string {
				return fmt.Sprintf("cachepart: node %d async write #%d to %s", n.id, p.wseq, n.ix.Name(p.varID))
			})
	}
	for n.ownDone[p.varID] <= p.wseq {
		n.applied.Wait()
	}
	return nil
}

// PutAsync performs w_i(x)v without waiting for the sequencer round
// trip; Wait blocks until the update is applied locally. Outstanding
// writes reach x's sequencer in issue order only on FIFO channels, so
// on a NonFIFO network PutAsync degrades to the synchronous Put.
func (n *Node) PutAsync(x string, v []byte) (mcs.Pending, error) {
	if n.cfg.NonFIFO {
		return mcs.Done, n.Put(x, v)
	}
	xi, own, err := n.beginWrite(x)
	if err != nil {
		return nil, err
	}
	wseq := n.issueLocked(xi, own, v)
	n.mu.Unlock()
	return &pending{n: n, varID: xi, wseq: wseq}, nil
}

// Get performs r_i(x) wait-free on the local replica, appending the
// value to dst[:0].
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

// handle dispatches sequencing requests and replica updates.
func (n *Node) handle(msg netsim.Message) {
	switch msg.Kind {
	case KindRequest, KindForward:
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
		n.cfg.Faultf(n.id, "cachepart: node %d: unknown message kind %q", n.id, msg.Kind)
		mcs.RecycleFrame(msg)
	}
}

// sequence routes one write request (or forward) for the message's
// variable: multicast it under this node's sequencer role, park it
// across an in-progress handoff, or forward it toward the current
// owner. Malformed requests are reported through Config.Faultf and
// dropped (a panic on a reliable network, a survivable fault under
// injection).
func (n *Node) sequence(msg netsim.Message) {
	d := mcs.DecOf(msg.Payload)
	writer := msg.From
	if msg.Kind == KindForward {
		writer = int(d.U32())
	}
	wseq := int(d.U32())
	xi, v := d.VarVal()
	if err := d.Err(); err != nil {
		n.cfg.Faultf(n.id, "cachepart: node %d: malformed request from %d: %v", n.id, msg.From, err)
		mcs.RecycleFrame(msg)
		return
	}
	n.mu.Lock()
	if xi < 0 || xi >= n.ix.NumVars() || writer < 0 || writer >= n.cfg.Net.NumNodes() {
		n.mu.Unlock()
		n.cfg.Faultf(n.id, "cachepart: node %d: request from %d names unknown VarID %d / writer %d",
			n.id, msg.From, xi, writer)
		mcs.RecycleFrame(msg)
		return
	}
	switch {
	case n.ix.Owner(xi) == n.id && !n.fence.FencedLocked(xi):
		n.sequenceLocked(writer, wseq, xi, v)
	case n.ix.Owner(xi) == n.id || n.pendingOwnerLocked(xi):
		// Park across the transition window: either this sequencer
		// already fenced the variable (multicasting now would put the
		// update behind its own fence frame, breaking the drain
		// guarantee) or ownership is arriving and the writer flipped
		// first. Re-sequenced, in arrival order, when the attempt
		// resolves.
		n.heldReqs = append(n.heldReqs, heldReq{writer: writer, wseq: wseq, xi: xi, v: append(mcs.GetPayload(), v...)})
	default:
		// A straggler routed under a stale epoch: pass it toward the
		// variable's current owner, carrying the original writer.
		n.forwardLocked(writer, wseq, xi, v)
	}
	n.mu.Unlock()
	mcs.PutPayload(msg.Payload)
}

// sequenceLocked (sequencer role) assigns the per-variable order and
// multicasts to C(x). Called with mu held; the multicast goes out
// under the lock, so every update precedes any fence frame this node
// later sends on the same channels.
func (n *Node) sequenceLocked(writer, wseq, xi int, v []byte) {
	seq := n.vseq[xi]
	n.vseq[xi]++
	// The multicast payload is shared across C(x): a refcounted pooled
	// frame that the last receiver recycles.
	clique := n.ix.Clique(xi)
	buf, refs := mcs.GetSharedPayload(len(clique))
	var enc mcs.Enc
	enc.SetBuf(buf)
	enc.U32(uint32(seq)).U32(uint32(writer)).U32(uint32(wseq)).VarVal(xi, v)
	payload := enc.Bytes()
	for _, p := range clique {
		n.cfg.Net.Send(netsim.Message{
			From: n.id, To: p, Kind: KindUpdate,
			Payload: payload, CtrlBytes: len(payload) - len(v), DataBytes: len(v),
			Vars: n.ix.MsgVars(xi), Epoch: n.ix.Epoch(), SharedPayload: true, SharedRefs: refs,
		})
	}
}

// forwardLocked re-routes one request toward x's current owner with
// the original writer's identity attached. Called with mu held.
func (n *Node) forwardLocked(writer, wseq, xi int, v []byte) {
	own := n.ix.Owner(xi)
	if own < 0 || own == n.id {
		n.cfg.Faultf(n.id, "cachepart: node %d: cannot forward request for %s (owner %d)", n.id, n.ix.Name(xi), own)
		return
	}
	var enc mcs.Enc
	enc.SetBuf(mcs.GetPayload())
	enc.U32(uint32(writer)).U32(uint32(wseq)).VarVal(xi, v)
	payload := enc.Bytes()
	n.cfg.Net.Send(netsim.Message{
		From: n.id, To: own, Kind: KindForward,
		Payload: payload, CtrlBytes: len(payload) - len(v), DataBytes: len(v),
		Vars: n.ix.MsgVars(xi), Epoch: n.ix.Epoch(),
	})
}

// pendingOwnerLocked reports whether the in-progress reconfiguration
// attempt (if any) makes this node the variable's sequencer. Called
// with mu held.
func (n *Node) pendingOwnerLocked(xi int) bool {
	next := n.rcf.PendingIndexLocked()
	return next != nil && next.Owner(xi) == n.id
}

// applyUpdate applies x's updates strictly in per-variable sequence
// order. An update stamped with an epoch ahead of this node's was
// multicast by a sequencer that flipped first; it parks until this
// node's own commit arrives and resets the variable's numbering.
func (n *Node) applyUpdate(msg netsim.Message) {
	d := mcs.DecOf(msg.Payload)
	seq := int(d.U32())
	writer := int(d.U32())
	wseq := int(d.U32())
	xi, v := d.VarVal()
	if err := d.Err(); err != nil {
		n.cfg.Faultf(n.id, "cachepart: node %d: malformed update: %v", n.id, err)
		mcs.RecycleFrame(msg)
		return
	}
	n.mu.Lock()
	if xi < 0 || xi >= n.ix.NumVars() {
		n.mu.Unlock()
		n.cfg.Faultf(n.id, "cachepart: node %d: update names unknown VarID %d", n.id, xi)
		mcs.RecycleFrame(msg)
		return
	}
	if msg.Epoch > n.ix.Epoch() {
		n.futures = append(n.futures, futureUpd{
			epoch: msg.Epoch, seq: seq, writer: writer, wseq: wseq, xi: xi,
			v: append(mcs.GetPayload(), v...),
		})
		n.mu.Unlock()
		mcs.RecycleFrame(msg)
		return
	}
	n.applyUpdateLocked(seq, writer, wseq, xi, v)
	n.mu.Unlock()
	mcs.RecycleFrame(msg) // last receiver of the shared multicast recycles it
}

// applyUpdateLocked runs one decoded update through the per-variable
// cursor logic. Called with mu held; v is copied before it is stored.
func (n *Node) applyUpdateLocked(seq, writer, wseq, xi int, v []byte) {
	// Updates below the variable's cursor are already reflected — an
	// injected duplicate, or a pre-crash straggler the snapshot merge
	// covered — and are dropped. During a rejoin window updates only
	// buffer: the cursors are being re-learned from peer snapshots.
	if !n.rejoining && seq < n.nextSeq[xi] {
		// The replica state needs nothing, but an own write riding the
		// frame must still be settled or its Put/Wait would block forever
		// (the write's effect reached us inside an adopted snapshot).
		n.settleOwnLocked(xi, writer, wseq)
		return
	}
	if n.buffered[xi] == nil {
		n.buffered[xi] = make(map[int]bufferedUpd)
	}
	// The value must outlive the delivered frame: copy it into a pooled
	// buffer, recycled when the update applies.
	n.buffered[xi][seq] = bufferedUpd{writer: writer, wseq: wseq, v: append(mcs.GetPayload(), v...)}
	if !n.rejoining {
		n.drainLocked(xi)
	}
}

// drainLocked applies x's buffered updates in sequence order from the
// cursor and wakes write waiters.
func (n *Node) drainLocked(xi int) {
	for {
		u, ok := n.buffered[xi][n.nextSeq[xi]]
		if !ok {
			break
		}
		delete(n.buffered[xi], n.nextSeq[xi])
		n.nextSeq[xi]++
		n.replicas.Set(xi, u.v)
		n.tags[xi] = mcs.WriteTag{Writer: u.writer, WSeq: u.wseq}
		if rec := n.cfg.Recorder; rec != nil {
			rec.RecordApply(n.id, u.writer, u.wseq, n.ix.Name(xi), u.v)
		}
		n.settleOwnLocked(xi, u.writer, u.wseq)
		mcs.PutPayload(u.v)
	}
	n.applied.Broadcast()
}

// settleOwnLocked advances x's own-write settle cursor when an own
// update's effect is in the replica state — applied by the drain,
// covered by an adopted snapshot prefix, or echoed by a fault-layer
// duplicate. Max semantics keep it idempotent, and pre-crash
// stragglers never regress it: CrashRestart settles everything issued
// before the crash.
func (n *Node) settleOwnLocked(xi, writer, wseq int) {
	if writer == n.id && wseq+1 > n.ownDone[xi] {
		n.ownDone[xi] = wseq + 1
		n.applied.Broadcast()
	}
}

// finishRejoinLocked closes the rejoin window (Recovery.OnDone, node
// lock held): buffered updates below the adopted cursors — pre-crash
// stragglers the snapshots already cover — are purged, each variable's
// drain resumes from its cursor, and variables no live peer knew a
// value for are recorded as ⊥ resets.
func (n *Node) finishRejoinLocked() {
	n.rejoining = false
	rec := n.cfg.Recorder
	for _, xi := range n.ix.VarIDs(n.id) {
		for seq, u := range n.buffered[xi] {
			if seq < n.nextSeq[xi] {
				delete(n.buffered[xi], seq)
				// The purged update's effect is inside the adopted
				// snapshot; an own write issued during the rejoin window
				// still completes.
				n.settleOwnLocked(xi, u.writer, u.wseq)
				mcs.PutPayload(u.v)
			}
		}
		if rec != nil && n.tags[xi].Writer < 0 {
			rec.RecordRecoverAt(n.id, -1, -1, n.ix.Name(xi), mcs.BottomValue, n.ix.Epoch())
		}
		n.drainLocked(xi)
	}
}

// CrashRestart models the node rejoining after a crash with its
// volatile state lost: replicas revert to ⊥; tags, apply cursors,
// reorder buffers, parked requests and any in-progress reconfiguration
// attempt are forgotten, to be re-learned from peer snapshots during
// Recover (mcs.CrashRestarter). Durable state survives: the node's
// write counters, and its per-variable sequencer counters (a reused
// sequence number would fork a variable's total order). Writes still
// blocked from before the crash complete: their requests died with the
// node.
func (n *Node) CrashRestart() {
	n.mu.Lock()
	for xi := range n.replicas {
		n.replicas.Set(xi, mcs.BottomValue)
		n.tags[xi] = mcs.WriteTag{Writer: -1}
		n.nextSeq[xi] = 0
		n.purgeBufferedLocked(xi)
		n.ownDone[xi] = n.wseq
	}
	for _, h := range n.heldReqs {
		mcs.PutPayload(h.v)
	}
	n.heldReqs = nil
	for _, f := range n.futures {
		mcs.PutPayload(f.v)
	}
	n.futures = nil
	n.rejoining = true
	n.rcv.Cancel()
	n.rcf.CancelLocked()
	n.fence.LiftLocked()
	n.applied.Broadcast()
	n.mu.Unlock()
}

// Recover starts the rejoin handshake with every variable-sharing
// neighbor under the current epoch's index (mcs.CrashRestarter).
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

// ReconfigFlushLocked implements mcs.ReconfigHooks. The protocol has no
// outbox — requests and multicasts are sent directly, with mu held, so
// the engine's fence frames (sent under the same lock) already travel
// behind every earlier frame.
func (n *Node) ReconfigFlushLocked() {}

// ReconfigFenceLocked fences writes to the variables whose assignment —
// clique or sequencer — changes (mcs.ReconfigHooks). The fence also
// stops this node's own sequencer role for those variables: requests
// arriving after it park instead of being multicast behind the fence
// frame (see sequence).
func (n *Node) ReconfigFenceLocked(next *sharegraph.Index) {
	n.fence.ArmLocked(&n.mu, n.id, n.ix, next, false)
}

// ReconfigTransferVarsLocked lists the variables this node gains as a
// replica in the next epoch (mcs.ReconfigHooks). A node that keeps a
// variable across the flip needs no transfer: the fence barrier left
// it with the complete old-epoch stream applied, so every surviving
// member agrees on the value. The sequencer role itself carries no
// state beyond the counter, which restarts at zero cluster-wide.
func (n *Node) ReconfigTransferVarsLocked(next *sharegraph.Index) []int {
	return n.ix.Gained(next, n.id)
}

// RejoinVarsLocked lists the variables a rejoining peer shares with
// this node (mcs.StateCodec): snapshot traffic stays inside the cliques
// both nodes belong to, preserving the protocol's efficiency.
func (n *Node) RejoinVarsLocked(peer int, ids []int) []int {
	return n.ix.AppendShared(ids, n.id, peer)
}

// EncodeStateLocked writes, per written variable of varIDs, the last
// applied write's (writer, wseq) tag and value (mcs.StateCodec). A
// rejoin leads each entry with the variable's apply cursor (and skips
// variables with none yet); a migration carries no cursor: a gained
// variable's assignment changed by definition, so its stream numbering
// restarts at zero on every clique member at the flip.
func (n *Node) EncodeStateLocked(enc *mcs.Enc, peer int, varIDs []int, how mcs.Transfer) (data int, vars []string) {
	countPos := enc.Len()
	enc.U32(0)
	count := 0
	for _, xi := range varIDs {
		t := n.tags[xi]
		if t.Writer < 0 || how == mcs.Rejoin && n.nextSeq[xi] == 0 {
			continue
		}
		if how == mcs.Rejoin {
			enc.U32(uint32(n.nextSeq[xi]))
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

// MergeStateLocked merges a peer's entries (mcs.StateCodec). On a
// rejoin each variable's updates form one total order, so the highest
// apply cursor wins and adopting its value and cursor together keeps
// them consistent. Migration values pass the usual staleness rule and
// are recorded at the pending epoch — the cache monitor re-anchors the
// variable's position from them; merged state is harmless if the
// attempt aborts (valid tagged writes for variables the node simply
// won't serve).
func (n *Node) MergeStateLocked(d *mcs.Dec, from int, how mcs.Transfer) error {
	epoch := n.ix.Epoch()
	if how == mcs.Migration {
		epoch = n.rcf.PendingIndexLocked().Epoch()
	}
	count := int(d.U32())
	for k := 0; k < count; k++ {
		cursor := 0
		if how == mcs.Rejoin {
			cursor = int(d.U32())
		}
		w := int(d.U32())
		s := int(d.U32())
		xi, v := d.VarVal()
		if err := d.Err(); err != nil {
			return err
		}
		if xi < 0 || xi >= n.ix.NumVars() || w < 0 || w >= n.cfg.Net.NumNodes() {
			return fmt.Errorf("cachepart: entry names unknown VarID %d / writer %d", xi, w)
		}
		if how == mcs.Rejoin {
			if cursor <= n.nextSeq[xi] {
				continue
			}
			n.nextSeq[xi] = cursor
		} else if n.tags[xi].Stale(w, s) {
			continue
		}
		n.replicas.Set(xi, v)
		n.tags[xi] = mcs.WriteTag{Writer: w, WSeq: s}
		if rec := n.cfg.Recorder; rec != nil {
			rec.RecordTransfer(how, n.id, w, s, n.ix.Name(xi), v, epoch)
		}
	}
	return d.Err()
}

// ReconfigFlipLocked installs the next epoch (mcs.ReconfigHooks): shed
// replicas revert to ⊥, every assignment-changed variable's stream
// numbering restarts at zero (sequencer counter, apply cursor and
// reorder buffer alike — readiness certified that every live member
// drained the old stream in full), gained variables no donor had a
// value for are recorded as ⊥ resets, own writes on shed variables are
// settled (their updates now apply at a clique this node left), and
// the index swaps. Then the parked traffic re-enters: requests held
// across the window are re-sequenced by this node or forwarded to the
// variable's new owner in arrival order, and updates that arrived
// under the new epoch before this commit drain through the normal
// cursor logic.
func (n *Node) ReconfigFlipLocked(next *sharegraph.Index) {
	rec := n.cfg.Recorder
	for _, xi := range n.ix.VarIDs(n.id) {
		if next.Holds(n.id, xi) {
			continue
		}
		n.replicas.Set(xi, mcs.BottomValue)
		n.tags[xi] = mcs.WriteTag{Writer: -1}
		if n.ownDone[xi] < n.wseq {
			n.ownDone[xi] = n.wseq
		}
	}
	for xi := 0; xi < n.ix.NumVars(); xi++ {
		if sharegraph.SameAssignment(n.ix, next, xi) {
			continue
		}
		n.vseq[xi] = 0
		n.nextSeq[xi] = 0
		n.purgeBufferedLocked(xi)
	}
	if rec != nil && !n.rejoining {
		for _, xi := range next.VarIDs(n.id) {
			if !n.ix.Holds(n.id, xi) && n.tags[xi].Writer < 0 {
				rec.RecordMigrateAt(n.id, -1, -1, n.ix.Name(xi), mcs.BottomValue, next.Epoch())
			}
		}
	}
	n.ix = next
	n.fence.LiftLocked()
	n.applied.Broadcast()
	n.releaseHeldReqsLocked()
	if len(n.futures) > 0 {
		futures := n.futures
		n.futures = nil
		for _, f := range futures {
			if f.epoch > n.ix.Epoch() {
				n.futures = append(n.futures, f)
				continue
			}
			n.applyUpdateLocked(f.seq, f.writer, f.wseq, f.xi, f.v)
			mcs.PutPayload(f.v)
		}
	}
}

// releaseHeldReqsLocked re-enters the requests parked across the
// transition window, in arrival order: sequenced here if this node
// owns the variable under the current epoch, forwarded to its owner
// otherwise.
func (n *Node) releaseHeldReqsLocked() {
	held := n.heldReqs
	n.heldReqs = nil
	for _, h := range held {
		if n.ix.Owner(h.xi) == n.id {
			n.sequenceLocked(h.writer, h.wseq, h.xi, h.v)
		} else {
			n.forwardLocked(h.writer, h.wseq, h.xi, h.v)
		}
		mcs.PutPayload(h.v)
	}
}

// purgeBufferedLocked discards every reorder-buffered update for xi,
// recycling the payload copies. Deletion order is invisible: nothing
// leaves the node and the payload pool is content-agnostic.
func (n *Node) purgeBufferedLocked(xi int) {
	for seq, u := range n.buffered[xi] {
		delete(n.buffered[xi], seq)
		mcs.PutPayload(u.v)
	}
}

// ReconfigAbortLocked abandons the attempt (mcs.ReconfigHooks): the
// fence lifts, the current epoch stays in force, and the requests
// parked behind the fence are sequenced under it after all — this node
// is still the owner of every variable it fenced as one. Parked
// future-epoch updates stay parked: their epoch was decided commit by
// definition, so this node's own commit is still in flight.
func (n *Node) ReconfigAbortLocked() {
	n.fence.LiftLocked()
	n.releaseHeldReqsLocked()
}

var (
	_ mcs.Node           = (*Node)(nil)
	_ mcs.CrashRestarter = (*Node)(nil)
	_ mcs.ReconfigHooks  = (*Node)(nil)
)
