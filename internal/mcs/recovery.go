package mcs

import (
	"sync"

	"partialdsm/internal/netsim"
)

// Recovery wire format. Rejoining a crashed node is a protocol-level
// handshake on the normal transport — coalescing, virtual latency and
// the fault schedule all apply to recovery traffic, and the dedicated
// kinds let Stats account it separately from steady-state updates.
//
// A snapshot request is (U32 epoch); the responder answers with
// (U32 epoch, state body), the body written by the protocol's
// StateCodec for the variables the requester is owed — the same codec
// that writes epoch migration bodies, in its Rejoin flavour (values
// plus the recovery-only metadata: delivery cursors, vector clocks,
// duplicate-suppression counts). The epoch is the requester's
// recovery-attempt counter: responses from an earlier attempt — or
// duplicates injected by the fault layer — are recognized and dropped.
const (
	KindSnapReq  = "recovery.snapreq"  // rejoining node → live peer
	KindSnapResp = "recovery.snapresp" // live peer → rejoining node
)

const (
	// RecoveryRetryTicks is the virtual-time interval after which a
	// rejoining node re-requests snapshots from peers that have not
	// answered — the request or the response may have been lost. The
	// interval must sit ABOVE the ack/retransmit layer's timeout
	// (netsim.ReliableOptions.RetransmitTicks, default 1<<20): a lost
	// response leaves a gap in the pair's FIFO stream that buffers every
	// fresh response behind it until a retransmission fills it, so a
	// retry cadence shorter than the RTO only burns budget without ever
	// seeing new bytes. Virtual deadlines are reached via idle jumps, so
	// the generous interval costs no wall time.
	RecoveryRetryTicks = 1 << 21
	// RecoveryMaxRetries bounds the re-requests per recovery attempt:
	// clock callbacks must not reschedule unconditionally (Quiesce
	// would diverge), so a peer that stays silent through the whole
	// budget is reported through OnFault instead of retried forever.
	RecoveryMaxRetries = 32
)

// Transfer says why a StateCodec moves state between two peers.
type Transfer int

const (
	// Rejoin re-seeds a crashed peer: the body carries, besides the
	// values, the recovery-only metadata the crash wiped (delivery and
	// apply cursors, vector clocks, duplicate-suppression counts), and
	// adopted values are recorded as recovery events.
	Rejoin Transfer = iota
	// Migration seeds a node gaining variables at an epoch flip: stream
	// numbering restarts at the flip, so cursors stay behind (merged
	// before the flip, they would make the admitted post-flip frames
	// drain as stale), and adopted values are recorded as migration
	// events.
	Migration
)

// StateCodec is a protocol's one state-transfer format, shared by
// crash recovery (Recovery) and epoch migration (Reconfig): both move
// the same per-variable records between peers, filtered to the
// variables the receiver replicates or is notified about, so the
// efficiency property (Theorem 2) holds while a node rejoins and while
// replicas migrate. Every method is called with the node's mutex held.
type StateCodec interface {
	// RejoinVarsLocked appends to ids the VarIDs whose state a
	// rejoining peer is owed by this node, ascending.
	RejoinVarsLocked(peer int, ids []int) []int
	// EncodeStateLocked appends the state of varIDs for peer to enc,
	// reporting the payload's data (value) bytes — everything else is
	// control — and the variables the body mentions.
	EncodeStateLocked(enc *Enc, peer int, varIDs []int, how Transfer) (data int, vars []string)
	// MergeStateLocked merges one peer's body. A malformed body returns
	// an error; entries merged before the fault stay merged.
	MergeStateLocked(d *Dec, from int, how Transfer) error
}

// Recovery is the rejoin handshake, shared by all eight protocols and
// guarded by the owning node's mutex. The protocol's Recover calls
// Begin with its state-sharing peers; its message handler routes both
// recovery kinds to Handle, which answers requests and merges
// responses through the protocol's StateCodec. Lost requests are
// retried on the virtual clock; exhausted retries surface the
// unresponsive peers as a per-node fault.
type Recovery struct {
	cfg   Config
	node  int
	mu    *sync.Mutex // the owning node's mutex
	codec StateCodec

	// OnDone, when set, runs once per attempt — after the last peer's
	// snapshot has been merged, or at retry exhaustion — with the node
	// mutex held. Protocols use it to drain updates held back during
	// the rejoin window and to mark still-unknown variables as reset.
	OnDone func()

	epoch   uint32
	waiting []bool // by peer id: asked this epoch, not yet answered
	left    int    // peers still owed an answer
	retries int
	begin   uint64 // virtual tick at Begin

	recoveries int
	ticks      uint64

	// Scratch reused under mu, so answering or merging a snapshot
	// allocates nothing beyond the frame itself.
	ids []int
	enc Enc
	dec Dec
}

// NewRecovery returns the recovery engine for one node, sharing the
// node's mutex and encoding and merging snapshots with codec.
func NewRecovery(cfg Config, node int, mu *sync.Mutex, codec StateCodec) *Recovery {
	return &Recovery{
		cfg:     cfg,
		node:    node,
		mu:      mu,
		codec:   codec,
		waiting: make([]bool, cfg.Net.NumNodes()),
	}
}

// Begin starts a recovery attempt: one snapshot request goes to every
// peer, and a bounded retry timer re-requests from the silent ones.
// Call without the node mutex held (Begin sends). Peers must not
// include the node itself; an empty peer set (a node sharing variables
// with nobody) completes immediately.
func (r *Recovery) Begin(peers []int) {
	r.mu.Lock()
	r.epoch++
	epoch := r.epoch
	for i := range r.waiting {
		r.waiting[i] = false
	}
	for _, p := range peers {
		r.waiting[p] = true
	}
	r.left = len(peers)
	r.retries = RecoveryMaxRetries
	r.begin = r.cfg.Net.Clock().Now()
	if r.left == 0 {
		r.finishLocked(true)
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	r.send(peers, epoch)
	r.cfg.Net.Clock().After(RecoveryRetryTicks, func() { r.retry(epoch) })
}

// send ships one snapshot request per peer.
func (r *Recovery) send(peers []int, epoch uint32) {
	for _, p := range peers {
		var enc Enc
		enc.SetBuf(GetPayload())
		enc.U32(epoch)
		payload := enc.Bytes()
		r.cfg.Net.Send(netsim.Message{
			From:      r.node,
			To:        p,
			Kind:      KindSnapReq,
			Payload:   payload,
			CtrlBytes: len(payload),
		})
	}
}

// retry re-requests snapshots from peers still silent for the given
// epoch. It reschedules itself only while an attempt is live and the
// budget lasts, so Quiesce terminates: an unreachable peer burns the
// budget and becomes an OnFault report, not an infinite timer chain.
func (r *Recovery) retry(epoch uint32) {
	r.mu.Lock()
	if epoch != r.epoch || r.left == 0 {
		r.mu.Unlock()
		return
	}
	var silent []int
	for p, w := range r.waiting {
		if w {
			silent = append(silent, p)
		}
	}
	r.retries--
	if r.retries <= 0 {
		r.finishLocked(false)
		r.mu.Unlock()
		r.cfg.Faultf(r.node, "mcs: node %d recovery: peers %v unresponsive after %d snapshot retries",
			r.node, silent, RecoveryMaxRetries)
		return
	}
	r.mu.Unlock()
	r.send(silent, epoch)
	r.cfg.Net.Clock().After(RecoveryRetryTicks, func() { r.retry(epoch) })
}

// Handle serves one recovery frame; protocols route both recovery
// kinds to it from their transport handler. A snapshot request is
// answered with this node's state for the variables the requester is
// owed. A snapshot response is merged only when it is fresh — this
// epoch, from a peer still owed an answer — so stale-epoch responses
// and fault-layer duplicates are dropped unmerged; the response that
// settles the last waiting peer completes the attempt after its body
// is merged (OnDone must see the final state). Malformed frames are
// reported through Config.Faultf. Handle recycles the frame.
func (r *Recovery) Handle(msg netsim.Message) {
	defer RecycleFrame(msg)
	d := DecOf(msg.Payload)
	epoch := d.U32()
	if err := d.Err(); err != nil {
		r.cfg.Faultf(r.node, "mcs: node %d: malformed %s from %d: %v", r.node, msg.Kind, msg.From, err)
		return
	}
	if msg.From < 0 || msg.From >= len(r.waiting) {
		r.cfg.Faultf(r.node, "mcs: node %d: %s from unknown node %d", r.node, msg.Kind, msg.From)
		return
	}
	if msg.Kind == KindSnapReq {
		r.respond(msg.From, epoch)
		return
	}
	r.mu.Lock()
	if epoch != r.epoch || !r.waiting[msg.From] {
		r.mu.Unlock()
		return
	}
	r.waiting[msg.From] = false
	r.left--
	r.dec = d
	err := r.codec.MergeStateLocked(&r.dec, msg.From, Rejoin)
	if r.left == 0 {
		r.finishLocked(true)
	}
	r.mu.Unlock()
	if err != nil {
		r.cfg.Faultf(r.node, "mcs: node %d: malformed snapshot from %d: %v", r.node, msg.From, err)
	}
}

// finishLocked closes the attempt: its duration is accounted, a
// completion (as opposed to retry exhaustion) counts as a recovery, and
// OnDone runs.
func (r *Recovery) finishLocked(completed bool) {
	r.left = 0
	if completed {
		r.recoveries++
	}
	r.ticks += r.cfg.Net.Clock().Now() - r.begin
	if r.OnDone != nil {
		r.OnDone()
	}
}

// respond answers one snapshot request with the requester's owed
// state.
func (r *Recovery) respond(to int, epoch uint32) {
	r.mu.Lock()
	r.enc.SetBuf(GetPayload())
	r.enc.U32(epoch)
	r.ids = r.codec.RejoinVarsLocked(to, r.ids[:0])
	data, vars := r.codec.EncodeStateLocked(&r.enc, to, r.ids, Rejoin)
	payload := r.enc.Bytes()
	r.enc.SetBuf(nil)
	r.mu.Unlock()
	r.cfg.Net.Send(netsim.Message{
		From:      r.node,
		To:        to,
		Kind:      KindSnapResp,
		Payload:   payload,
		CtrlBytes: len(payload) - data,
		DataBytes: data,
		Vars:      vars,
	})
}

// Cancel abandons any live attempt (the node crashed again before its
// peers answered); called with the node mutex held. Outstanding
// responses and the leftover retry timer recognize the epoch bump and
// do nothing.
func (r *Recovery) Cancel() {
	r.epoch++
	for i := range r.waiting {
		r.waiting[i] = false
	}
	r.left = 0
}

// Stats returns the completed recovery handshakes and their summed
// virtual-tick durations (exhausted attempts count their duration but
// not a completion).
func (r *Recovery) Stats() (recoveries int, ticks uint64) {
	r.mu.Lock()
	recoveries, ticks = r.recoveries, r.ticks
	r.mu.Unlock()
	return recoveries, ticks
}

// WriteTag identifies the write a replica entry currently holds:
// the (Writer, WSeq) of the last update applied to the variable.
// Writer < 0 means untagged — the entry is still ⊥. Tags are what a
// snapshot response carries alongside each value, and what lets both
// the merge and the post-recovery apply path recognize state the
// adopted snapshot already reflects (a message sent before the crash
// can legally be delivered after the restart).
type WriteTag struct{ Writer, WSeq int }

// NewWriteTags returns an all-untagged tag store for numVars entries.
func NewWriteTags(numVars int) []WriteTag {
	t := make([]WriteTag, numVars)
	for i := range t {
		t[i].Writer = -1
	}
	return t
}

// Stale reports whether write (w, s) of the same writer is already
// reflected by the tag — the apply/merge must skip it or it would roll
// the replica backward. Writes by a different writer are never stale:
// cross-writer ordering is the consistency criterion's business, not
// the tag's (exact rejoin is guaranteed for single-writer variables,
// the workload discipline of every harness in this repo; concurrent
// multi-writer overwrite during a recovery window is best-effort).
func (t WriteTag) Stale(w, s int) bool { return t.Writer == w && s <= t.WSeq }
