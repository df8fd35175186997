package mcs

import (
	"fmt"
	"sort"
	"sync"

	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
)

// Epoch reconfiguration wire protocol. A cluster moves from one
// placement epoch to the next with a coordinated four-stage handshake
// on the normal transport (virtual latency, coalesced neighbours'
// traffic and the fault schedule all apply):
//
//	propose   coordinator → every live node: the next epoch's placement
//	          (per-process VarID lists — the variable universe is fixed,
//	          so dense ids name the same variables in every epoch) and
//	          the live-node set.
//	fence     every live node → every other live node, sent after the
//	          node flushed its outboxes and fenced application writes.
//	          Per-pair FIFO puts the fence behind the sender's last
//	          pre-fence update, so a node that has collected fences from
//	          ALL live peers has also handled every pre-fence frame
//	          addressed to it: its state for the fenced variables is
//	          final for the old epoch.
//	migreq /  each node asks one donor per gained variable — the lowest
//	migresp   live member of the variable's old-epoch clique — for that
//	          variable's state. Donors defer responses until their own
//	          fence barrier is complete, so a transfer snapshot never
//	          misses an in-flight old-epoch write.
//	ready /   a node reports ready to the coordinator once its own
//	commit    fence barrier is complete AND it has merged every donor's
//	          response: readiness certifies the node drained all
//	          old-epoch traffic. Once all live nodes are ready the
//	          coordinator broadcasts commit and every node flips: the
//	          next index is installed, lost replicas are wiped,
//	          unmerged gains reset to ⊥, per-variable stream numbering
//	          restarts for the migrated variables, and the write fence
//	          lifts.
//
// Every payload leads with the U32 attempt number (never reused across
// a cluster's lifetime, whether the attempt commits or not); frames
// from a finished or foreign attempt are dropped. A fence or migreq can
// outrun the coordinator's propose on an independent channel pair, so
// those two kinds are buffered per attempt and replayed when the
// propose arrives.
//
// There is no abort wire kind. A stalled attempt (partitioned peer,
// crashed coordinator) is resolved from outside: the facade queries the
// coordinator's Decided bit — which survives the coordinator's own
// crash, standing in for the stable term store of a consensus service —
// and force-finishes every node the same way. Commit-decided implies
// every live node reported ready, hence merged, so a uniform forced
// flip is safe; not-decided implies nobody flipped, so a uniform forced
// abort is too.
const (
	KindEpochPropose = "epoch.propose" // coordinator → live nodes
	KindEpochFence   = "epoch.fence"   // live node → every other live node
	KindEpochMigReq  = "epoch.migreq"  // gaining node → donor
	KindEpochMigResp = "epoch.migresp" // donor → gaining node
	KindEpochReady   = "epoch.ready"   // live node → coordinator
	KindEpochCommit  = "epoch.commit"  // coordinator → live nodes
)

// ReconfigHooks is the protocol half of the reconfiguration engine:
// everything that depends on what "state of a variable" means for a
// given consistency criterion. The transfer bodies are written and
// merged by the protocol's StateCodec — the same codec crash recovery
// uses, in its Migration flavour. Every hook is called with the owning
// node's mutex held. Protocols whose replica state is global
// (full-replication causal memory, the sequencer protocol) request no
// transfers and flip by swapping the index.
type ReconfigHooks interface {
	StateCodec
	// ReconfigFlushLocked flushes the node's outboxes so the fence that
	// follows travels behind every staged pre-fence record.
	ReconfigFlushLocked()
	// ReconfigFenceLocked blocks application writes for the transition
	// window (typically via a Fence armed over the variables whose
	// clique changes; the causal partial-replication protocol fences
	// every write, because dependency lists entangle all variables).
	ReconfigFenceLocked(next *sharegraph.Index)
	// ReconfigTransferVarsLocked returns the VarIDs whose state this
	// node must fetch from old-epoch holders before it can serve the
	// next epoch (nil when the protocol's state is global).
	ReconfigTransferVarsLocked(next *sharegraph.Index) []int
	// ReconfigFlipLocked installs the next index: swap the node's index,
	// wipe replicas of lost variables, record ⊥ migration resets for
	// gained variables no donor had a value for, restamp the outboxes
	// (Outbox.SetEpoch) and lift the fence.
	ReconfigFlipLocked(next *sharegraph.Index)
	// ReconfigAbortLocked abandons the attempt: lift the fence and keep
	// the current epoch (merged transfer state is harmless — it carries
	// valid tagged writes for variables the node may simply not serve).
	ReconfigAbortLocked()
}

// ReconfigDonorPicker is an optional extension of ReconfigHooks for
// protocols whose authoritative per-variable state lives on a specific
// process rather than on every clique member. When implemented, the
// engine asks it — instead of defaulting to the lowest live member of
// the old clique — which donor must answer the transfer request for a
// gained variable. Returning a negative process means no usable donor
// exists (e.g. the old owner is dead) and the variable resets to ⊥ at
// the flip, like a recovery no peer could answer. Called with the
// owning node's mutex held.
type ReconfigDonorPicker interface {
	ReconfigDonorLocked(xi int, cur *sharegraph.Index, live []bool) int
}

// Fence blocks application writes to a set of variables for the
// duration of a reconfiguration window. Writers park on the condition
// variable (sharing the node mutex) until the flip or abort lifts the
// fence; with Config.OpDeadlineTicks set, a fence that never lifts —
// the epoch transition stalled on a partition — fails the write fast
// with ErrOpDeadline instead of hanging it.
type Fence struct {
	cond   *sync.Cond
	fenced []bool // by VarID
	active int    // number of fenced variables
}

// ArmLocked fences the variables node holds under cur whose assignment
// — replica clique or owner — changes in next, or every held variable
// when all is set. Owner moves fence too: for the owner protocols a
// same-clique owner move still needs the drain window, and for the
// ownerless protocols assignments only change when cliques do, so the
// owner term never widens their fence. Called with mu (the owning
// node's mutex) held.
func (f *Fence) ArmLocked(mu *sync.Mutex, node int, cur, next *sharegraph.Index, all bool) {
	if f.cond == nil {
		f.cond = sync.NewCond(mu)
	}
	if f.fenced == nil {
		f.fenced = make([]bool, cur.NumVars())
	}
	for _, xi := range cur.VarIDs(node) {
		if (all || !sharegraph.SameAssignment(cur, next, xi)) && !f.fenced[xi] {
			f.fenced[xi] = true
			f.active++
		}
	}
}

// LiftLocked unfences everything and wakes parked writers.
func (f *Fence) LiftLocked() {
	if f.active > 0 {
		for i := range f.fenced {
			f.fenced[i] = false
		}
		f.active = 0
	}
	if f.cond != nil {
		f.cond.Broadcast()
	}
}

// FencedLocked reports whether variable xi is currently fenced.
// Handler paths use it to park requests that must not enter the old
// epoch's stream once the transition window opened (the sequencer
// protocol parks requests instead of multicasting behind its own fence
// frame). Called with the owning node's mutex held.
func (f *Fence) FencedLocked(xi int) bool {
	return f.active > 0 && xi >= 0 && xi < len(f.fenced) && f.fenced[xi]
}

// WaitLocked parks the calling writer while variable xi is fenced,
// honouring the operation deadline. Returns nil immediately when no
// fence covers xi.
func (f *Fence) WaitLocked(cfg Config, node, xi int, x string) error {
	if f.active == 0 || xi < 0 || xi >= len(f.fenced) || !f.fenced[xi] {
		return nil
	}
	return cfg.WaitDeadline(node, f.cond,
		func() bool { return !f.fenced[xi] },
		func() string {
			return fmt.Sprintf("node %d write to %s fenced by an epoch reconfiguration", node, x)
		})
}

// earlyCtl is a fence or migreq that outran the coordinator's propose
// on an independent channel pair, parked until the attempt activates.
type earlyCtl struct {
	attempt uint32
	kind    string
	from    int
	varIDs  []int // migreq only
}

// migReq is a transfer request deferred until the donor's fence barrier
// completes.
type migReq struct {
	from   int
	varIDs []int
}

// Reconfig is one node's half of the epoch reconfiguration engine,
// shared by every protocol that supports live migration and guarded by
// the owning node's mutex (like Recovery). The facade starts an attempt
// on the coordinator's engine; every node's message handler routes the
// six epoch.* kinds to Handle.
type Reconfig struct {
	cfg   Config
	node  int
	mu    *sync.Mutex // the owning node's mutex
	hooks ReconfigHooks

	cur *sharegraph.Index // this node's view of the committed epoch

	// Per-attempt state, valid while next != nil.
	attempt    uint32 // highest attempt seen (never reused)
	next       *sharegraph.Index
	live       []bool
	nLive      int
	coord      int
	fences     []bool // by peer: fence received this attempt
	fencesLeft int    // live peers whose fence is still missing
	deferred   []migReq
	expect     []bool // by donor: migresp still owed
	donorsLeft int
	readySent  bool

	// Coordinator state.
	readies     []bool
	readiesLeft int
	decided     uint32 // attempt number of the last commit decision;
	// survives Cancel — the crash-durable decision bit the facade
	// consults before force-finishing a stalled attempt.
	done chan struct{} // closed after the coordinator's local flip

	early []earlyCtl
}

// NewReconfig returns the reconfiguration engine for one node, sharing
// the node's mutex. cur is the node's epoch-0 index.
func NewReconfig(cfg Config, node int, mu *sync.Mutex, hooks ReconfigHooks, cur *sharegraph.Index) *Reconfig {
	n := cfg.Net.NumNodes()
	return &Reconfig{
		cfg:     cfg,
		node:    node,
		mu:      mu,
		hooks:   hooks,
		cur:     cur,
		fences:  make([]bool, n),
		expect:  make([]bool, n),
		readies: make([]bool, n),
	}
}

// StartReconfigure begins the distributed transition to next on the
// coordinator node. live flags the nodes taking part (the coordinator
// itself must be live); epoch is the attempt number, strictly greater
// than every earlier attempt's. The returned channel closes once the
// coordinator has decided commit and flipped locally; the in-flight
// commits to the other nodes drain with the network.
func (r *Reconfig) StartReconfigure(next *sharegraph.Index, live []bool, epoch uint64) (<-chan struct{}, error) {
	r.mu.Lock()
	if r.next != nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("mcs: node %d: a reconfiguration attempt is already in progress", r.node)
	}
	if uint32(epoch) <= r.attempt {
		r.mu.Unlock()
		return nil, fmt.Errorf("mcs: node %d: attempt number %d not above %d", r.node, epoch, r.attempt)
	}
	r.beginAttemptLocked(next, live, uint32(epoch), r.node)
	// Coordinator bookkeeping: one ready per live node, own commit
	// decision pending.
	for i := range r.readies {
		r.readies[i] = false
	}
	r.readiesLeft = r.nLive
	r.done = make(chan struct{})
	done := r.done

	// Broadcast the proposal. Per-pair FIFO orders it before this node's
	// own fence, sent by participantBeginLocked below.
	var enc Enc
	enc.SetBuf(GetPayload())
	enc.U32(r.attempt).U32(uint32(next.NumProcs()))
	for p := 0; p < next.NumProcs(); p++ {
		ids := next.VarIDs(p)
		u := make([]uint32, len(ids))
		for k, id := range ids {
			u[k] = uint32(id)
		}
		enc.U32Slice(u)
	}
	var liveIDs []uint32
	for p, ok := range live {
		if ok {
			liveIDs = append(liveIDs, uint32(p))
		}
	}
	enc.U32Slice(liveIDs)
	// Owner overrides: only the variables whose owner differs from the
	// default (lowest clique member) travel, id-ascending — empty for
	// every placement that never called SetOwner.
	var ownerVars, ownerProcs []uint32
	for id := 0; id < next.NumVars(); id++ {
		if c := next.Clique(id); len(c) > 0 && next.Owner(id) != c[0] {
			ownerVars = append(ownerVars, uint32(id))
			ownerProcs = append(ownerProcs, uint32(next.Owner(id)))
		}
	}
	enc.U32Slice(ownerVars)
	enc.U32Slice(ownerProcs)
	proposal := enc.Bytes()
	for p, ok := range live {
		if !ok || p == r.node {
			continue
		}
		payload := append(GetPayload(), proposal...)
		r.cfg.Net.Send(netsim.Message{
			From:      r.node,
			To:        p,
			Kind:      KindEpochPropose,
			Payload:   payload,
			CtrlBytes: len(payload),
		})
	}
	PutPayload(proposal)

	r.participantBeginLocked()
	r.mu.Unlock()
	return done, nil
}

// beginAttemptLocked resets the per-attempt state.
func (r *Reconfig) beginAttemptLocked(next *sharegraph.Index, live []bool, attempt uint32, coord int) {
	r.attempt = attempt
	r.next = next
	r.live = live
	r.coord = coord
	r.nLive = 0
	for _, ok := range live {
		if ok {
			r.nLive++
		}
	}
	for i := range r.fences {
		r.fences[i] = false
		r.expect[i] = false
	}
	r.fencesLeft = r.nLive - 1
	r.deferred = r.deferred[:0]
	r.donorsLeft = 0
	r.readySent = false
}

// participantBeginLocked runs this node's share of an activated
// attempt: flush, fence, request transfers.
func (r *Reconfig) participantBeginLocked() {
	r.hooks.ReconfigFlushLocked()
	r.hooks.ReconfigFenceLocked(r.next)
	var enc Enc
	enc.U32(r.attempt)
	for p, ok := range r.live {
		if !ok || p == r.node {
			continue
		}
		payload := append(GetPayload(), enc.Bytes()...)
		r.cfg.Net.Send(netsim.Message{
			From:      r.node,
			To:        p,
			Kind:      KindEpochFence,
			Payload:   payload,
			CtrlBytes: len(payload),
		})
	}

	// Group the variables this node must fetch by donor: the lowest
	// live member of each variable's old-epoch clique, unless the
	// protocol pins a specific donor (ReconfigDonorPicker — the atomic
	// register's authoritative state lives only on the old owner). A
	// variable with no usable donor resets to ⊥ at the flip, exactly
	// like a recovery no peer could answer.
	picker, _ := r.hooks.(ReconfigDonorPicker)
	var donors map[int][]int
	for _, xi := range r.hooks.ReconfigTransferVarsLocked(r.next) {
		donor := -1
		if picker != nil {
			if p := picker.ReconfigDonorLocked(xi, r.cur, r.live); p >= 0 && p != r.node {
				donor = p
			}
		} else {
			for _, p := range r.cur.Clique(xi) {
				if p < len(r.live) && r.live[p] && p != r.node {
					donor = p
					break
				}
			}
		}
		if donor < 0 {
			continue
		}
		if donors == nil {
			donors = make(map[int][]int)
		}
		donors[donor] = append(donors[donor], xi)
	}
	r.donorsLeft = len(donors)
	// Send requests in donor order, not map order: the requests enter
	// the transport's global send sequence here, so map iteration order
	// would leak into the byte-identical trace.
	donorOrder := make([]int, 0, len(donors))
	for donor := range donors {
		donorOrder = append(donorOrder, donor)
	}
	sort.Ints(donorOrder)
	for _, donor := range donorOrder {
		ids := donors[donor]
		var req Enc
		req.SetBuf(GetPayload())
		req.U32(r.attempt)
		u := make([]uint32, len(ids))
		vars := make([]string, len(ids))
		for k, id := range ids {
			u[k] = uint32(id)
			vars[k] = r.cur.Name(id)
		}
		req.U32Slice(u)
		payload := req.Bytes()
		r.expect[donor] = true
		r.cfg.Net.Send(netsim.Message{
			From:      r.node,
			To:        donor,
			Kind:      KindEpochMigReq,
			Payload:   payload,
			CtrlBytes: len(payload),
			Vars:      vars,
		})
	}
	r.maybeReadyLocked()
	// Replay any fence or migreq that outran the propose.
	if len(r.early) > 0 {
		early := r.early
		r.early = nil
		for _, e := range early {
			if e.attempt != r.attempt {
				continue
			}
			switch e.kind {
			case KindEpochFence:
				r.fenceLocked(e.from)
			case KindEpochMigReq:
				r.migReqLocked(e.from, e.varIDs)
			}
		}
	}
}

// Handle routes one epoch.* message; protocols call it from their
// transport handler for the six epoch kinds. It recycles the frame.
func (r *Reconfig) Handle(msg netsim.Message) {
	defer RecycleFrame(msg)
	d := DecOf(msg.Payload)
	attempt := d.U32()
	if d.Err() != nil {
		r.cfg.Faultf(r.node, "mcs: node %d: malformed %s from %d: %v", r.node, msg.Kind, msg.From, d.Err())
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	active := r.next != nil && attempt == r.attempt
	switch msg.Kind {
	case KindEpochPropose:
		r.proposeLocked(msg.From, attempt, &d)
	case KindEpochFence:
		if active {
			r.fenceLocked(msg.From)
		} else if attempt > r.attempt {
			r.early = append(r.early, earlyCtl{attempt: attempt, kind: msg.Kind, from: msg.From})
		}
	case KindEpochMigReq:
		ids := d.U32Slice()
		if d.Err() != nil {
			r.cfg.Faultf(r.node, "mcs: node %d: malformed migreq from %d: %v", r.node, msg.From, d.Err())
			return
		}
		varIDs := make([]int, len(ids))
		for k, u := range ids {
			if int(u) >= r.cur.NumVars() {
				r.cfg.Faultf(r.node, "mcs: node %d: migreq from %d names unknown VarID %d", r.node, msg.From, u)
				return
			}
			varIDs[k] = int(u)
		}
		if active {
			r.migReqLocked(msg.From, varIDs)
		} else if attempt > r.attempt {
			r.early = append(r.early, earlyCtl{attempt: attempt, kind: msg.Kind, from: msg.From, varIDs: varIDs})
		}
	case KindEpochMigResp:
		if !active || msg.From < 0 || msg.From >= len(r.expect) || !r.expect[msg.From] {
			return
		}
		r.expect[msg.From] = false
		r.donorsLeft--
		if err := r.hooks.MergeStateLocked(&d, msg.From, Migration); err != nil {
			r.cfg.Faultf(r.node, "mcs: node %d: transfer merge from %d: %v", r.node, msg.From, err)
		}
		r.maybeReadyLocked()
	case KindEpochReady:
		if active && r.coord == r.node {
			r.readyLocked(msg.From)
		}
	case KindEpochCommit:
		if active {
			r.flipLocked()
		}
	}
}

// proposeLocked activates a participant attempt: rebuild the proposed
// placement from the per-process VarID lists and rebind the current
// index to it.
func (r *Reconfig) proposeLocked(from int, attempt uint32, d *Dec) {
	if attempt <= r.attempt {
		return // duplicate or stale proposal
	}
	if r.next != nil {
		r.cfg.Faultf(r.node, "mcs: node %d: proposal %d arrived during attempt %d", r.node, attempt, r.attempt)
		return
	}
	numProcs := int(d.U32())
	if d.Err() != nil || numProcs != r.cur.NumProcs() {
		r.cfg.Faultf(r.node, "mcs: node %d: malformed proposal from %d", r.node, from)
		return
	}
	pl := sharegraph.NewPlacement(numProcs)
	for p := 0; p < numProcs; p++ {
		ids := d.U32Slice()
		if d.Err() != nil {
			r.cfg.Faultf(r.node, "mcs: node %d: malformed proposal from %d: %v", r.node, from, d.Err())
			return
		}
		for _, u := range ids {
			if int(u) >= r.cur.NumVars() {
				r.cfg.Faultf(r.node, "mcs: node %d: proposal from %d names unknown VarID %d", r.node, from, u)
				return
			}
			pl.Assign(p, r.cur.Name(int(u)))
		}
	}
	liveIDs := d.U32Slice()
	if d.Err() != nil {
		r.cfg.Faultf(r.node, "mcs: node %d: malformed proposal from %d: %v", r.node, from, d.Err())
		return
	}
	live := make([]bool, numProcs)
	for _, u := range liveIDs {
		if int(u) < numProcs {
			live[u] = true
		}
	}
	ownerVars := d.U32Slice()
	ownerProcs := d.U32Slice()
	if d.Err() != nil || len(ownerVars) != len(ownerProcs) {
		r.cfg.Faultf(r.node, "mcs: node %d: malformed proposal from %d: bad owner section", r.node, from)
		return
	}
	for k, u := range ownerVars {
		if int(u) >= r.cur.NumVars() || int(ownerProcs[k]) >= numProcs ||
			!pl.Holds(int(ownerProcs[k]), r.cur.Name(int(u))) {
			r.cfg.Faultf(r.node, "mcs: node %d: proposal from %d pins an invalid owner", r.node, from)
			return
		}
		pl.SetOwner(r.cur.Name(int(u)), int(ownerProcs[k]))
	}
	next, err := r.cur.Rebind(pl, uint64(attempt))
	if err != nil {
		r.cfg.Faultf(r.node, "mcs: node %d: proposal from %d: %v", r.node, from, err)
		return
	}
	// Drop parked control frames from attempts this proposal supersedes.
	kept := r.early[:0]
	for _, e := range r.early {
		if e.attempt >= attempt {
			kept = append(kept, e)
		}
	}
	r.early = kept
	r.beginAttemptLocked(next, live, attempt, from)
	r.participantBeginLocked()
}

// fenceLocked records one live peer's fence; completing the barrier
// answers the deferred transfer requests — at this point every
// pre-fence frame from every live node has been handled, so the state
// a response carries is final for the old epoch.
func (r *Reconfig) fenceLocked(from int) {
	if from < 0 || from >= len(r.fences) || r.fences[from] {
		return
	}
	r.fences[from] = true
	r.fencesLeft--
	if r.fencesLeft == 0 {
		deferred := r.deferred
		r.deferred = nil
		for _, req := range deferred {
			r.respondLocked(req.from, req.varIDs)
		}
		r.maybeReadyLocked()
	}
}

// maybeReadyLocked reports readiness once both of this node's barriers
// are complete: every live peer's fence handled (per-pair FIFO then
// guarantees every pre-fence frame of the old epoch has been received
// too) and every donor's transfer merged. Commit — which needs every
// live node's ready — therefore implies each node had drained all
// old-epoch traffic before it flips, which is what lets the protocols
// restart per-variable stream numbering at the epoch boundary.
func (r *Reconfig) maybeReadyLocked() {
	if r.fencesLeft == 0 && r.donorsLeft == 0 {
		r.sendReadyLocked()
	}
}

// migReqLocked answers a transfer request, deferring it while this
// node's fence barrier is still open.
func (r *Reconfig) migReqLocked(from int, varIDs []int) {
	if r.fencesLeft > 0 {
		r.deferred = append(r.deferred, migReq{from: from, varIDs: varIDs})
		return
	}
	r.respondLocked(from, varIDs)
}

// respondLocked encodes and sends one transfer response.
func (r *Reconfig) respondLocked(to int, varIDs []int) {
	var enc Enc
	enc.SetBuf(GetPayload())
	enc.U32(r.attempt)
	data, vars := r.hooks.EncodeStateLocked(&enc, to, varIDs, Migration)
	payload := enc.Bytes()
	r.cfg.Net.Send(netsim.Message{
		From:      r.node,
		To:        to,
		Kind:      KindEpochMigResp,
		Payload:   payload,
		CtrlBytes: len(payload) - data,
		DataBytes: data,
		Vars:      vars,
	})
}

// sendReadyLocked reports this node's readiness to the coordinator.
func (r *Reconfig) sendReadyLocked() {
	if r.readySent {
		return
	}
	r.readySent = true
	if r.coord == r.node {
		r.readyLocked(r.node)
		return
	}
	var enc Enc
	enc.SetBuf(GetPayload())
	enc.U32(r.attempt)
	payload := enc.Bytes()
	r.cfg.Net.Send(netsim.Message{
		From:      r.node,
		To:        r.coord,
		Kind:      KindEpochReady,
		Payload:   payload,
		CtrlBytes: len(payload),
	})
}

// readyLocked (coordinator) counts one live node's readiness; the last
// one decides commit, broadcasts it, and flips locally.
func (r *Reconfig) readyLocked(from int) {
	if from < 0 || from >= len(r.readies) || r.readies[from] {
		return
	}
	r.readies[from] = true
	r.readiesLeft--
	if r.readiesLeft > 0 {
		return
	}
	r.decided = r.attempt
	var enc Enc
	enc.U32(r.attempt)
	for p, ok := range r.live {
		if !ok || p == r.node {
			continue
		}
		payload := append(GetPayload(), enc.Bytes()...)
		r.cfg.Net.Send(netsim.Message{
			From:      r.node,
			To:        p,
			Kind:      KindEpochCommit,
			Payload:   payload,
			CtrlBytes: len(payload),
		})
	}
	done := r.done
	r.flipLocked()
	if done != nil {
		close(done)
	}
}

// flipLocked installs the next epoch and closes the attempt.
func (r *Reconfig) flipLocked() {
	next := r.next
	r.hooks.ReconfigFlipLocked(next)
	r.cur = next
	r.clearAttemptLocked()
}

// clearAttemptLocked forgets the per-attempt state (the attempt number
// stays burned).
func (r *Reconfig) clearAttemptLocked() {
	r.next = nil
	r.live = nil
	r.deferred = nil
	r.donorsLeft = 0
	r.done = nil
}

// Decided reports whether the given attempt reached the commit
// decision on this node (meaningful on the attempt's coordinator). The
// decision bit survives Cancel — it models the one durable write a
// consensus service would make — so the facade can resolve an attempt
// whose coordinator crashed after broadcasting commit.
func (r *Reconfig) Decided(epoch uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.decided != 0 && r.decided == uint32(epoch)
}

// ForceFinish resolves a stalled attempt from outside: flip when the
// coordinator had decided commit, abort otherwise. A node with no
// attempt in progress (it already flipped, or never saw the proposal —
// possible only for an undecided attempt) is a no-op. The facade calls
// it on every node uniformly after the reconfiguration budget expires.
func (r *Reconfig) ForceFinish(commit bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next == nil {
		return
	}
	if commit {
		r.flipLocked()
		return
	}
	r.hooks.ReconfigAbortLocked()
	r.clearAttemptLocked()
}

// InstallCurrent force-installs an index on an idle engine, bypassing
// the wire protocol: the facade uses it to catch a restarted node up to
// the epochs that committed while it was down, before crash recovery
// re-seeds its state under the new placement. burned is the highest
// attempt number the cluster has ever used — committed or aborted. The
// crash wiped this node's burned-attempt counter, and without restoring
// the floor a stale proposal still in flight from an aborted attempt
// would enlist the restarted node into an attempt every other node has
// already abandoned, wedging reconfiguration forever (nobody re-aborts
// a dead attempt).
func (r *Reconfig) InstallCurrent(next *sharegraph.Index, burned uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next != nil {
		r.hooks.ReconfigAbortLocked()
		r.clearAttemptLocked()
	}
	if uint32(next.Epoch()) > r.attempt {
		r.attempt = uint32(next.Epoch())
	}
	if uint32(burned) > r.attempt {
		r.attempt = uint32(burned)
	}
	r.hooks.ReconfigFlipLocked(next)
	r.cur = next
}

// CancelLocked abandons any in-progress attempt without touching
// protocol state; the protocol's CrashRestart calls it with the node
// mutex held (the crash wipes the state the attempt was building
// anyway; the decision bit survives). Control frames parked for a
// future attempt are lost with the rest of the node's volatile state.
func (r *Reconfig) CancelLocked() {
	r.early = nil
	if r.next == nil {
		return
	}
	r.clearAttemptLocked()
}

// PendingHoldsLocked reports whether an in-progress attempt assigns
// variable xi to process p. Apply paths admit an update when the
// receiver holds the variable under the current epoch or the pending
// one: a gaining node must accept the first post-flip frames that
// arrive before its own commit does (the sender flipped first; the
// transfer merge is already complete, because commit needs every
// node's ready). Called with the node mutex held.
func (r *Reconfig) PendingHoldsLocked(p, xi int) bool {
	return r.next != nil && r.next.Holds(p, xi)
}

// PendingIndexLocked returns the in-progress attempt's proposed index,
// or nil when no attempt is active. Owner protocols consult it to serve
// requests a flipped peer already routed under the pending epoch.
// Called with the node mutex held.
func (r *Reconfig) PendingIndexLocked() *sharegraph.Index { return r.next }

// EpochLocked returns the committed epoch this node currently serves.
// Called with the node mutex held.
func (r *Reconfig) EpochLocked() uint64 { return r.cur.Epoch() }

// IsEpochKind reports whether kind is one of the six reconfiguration
// wire kinds, for protocol handler dispatch.
func IsEpochKind(kind string) bool {
	switch kind {
	case KindEpochPropose, KindEpochFence, KindEpochMigReq, KindEpochMigResp, KindEpochReady, KindEpochCommit:
		return true
	}
	return false
}
