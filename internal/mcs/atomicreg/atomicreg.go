// Package atomicreg implements atomic (linearizable) registers with a
// per-variable primary — the strongest criterion on the paper's
// spectrum (§1, citing Lamport). It exists as the comparison point
// showing what the stronger criteria cost: every operation, reads
// included, pays a round trip to the variable's primary, whereas the
// causal/PRAM memories serve reads wait-free from the local replica.
//
// The primary (owner) of x is a per-epoch property of the placement
// index — the lowest-numbered member of C(x) unless pinned elsewhere —
// and migrates through the epoch reconfiguration handshake: the old
// owner drains its in-flight rounds behind the fence barrier, ships the
// authoritative (value, tag) to the new owner in the transfer window,
// and the new owner installs it at the flip. The one request that can
// legitimately race the flip is a read routed under a stale epoch (reads
// are unfenced); the ex-owner bounces it with an epoch tag and the
// reader retries against the new owner once its own commit arrives.
// Writes cannot straggle: assignment-changed variables are fenced at
// every holder and requests are sent with the node lock held, so a
// write request always precedes its writer's fence on the channel.
//
// The wire protocol is idempotent against duplicated traffic: write
// requests carry a per-(requester, primary) request sequence the
// primary dedups on (a duplicate is re-acked, not re-applied), write
// acks carry that sequence back cumulatively (the requester takes the
// max, so a duplicated ack can never complete a later write early),
// and read responses carry the request's id (a stale duplicate is
// discarded by the reader). v1 of the protocol counted bare acks and
// applied every request — correct on reliable FIFO channels, silently
// wrong the moment the transport can duplicate.
//
// Every message is a single-destination request or reply, so each side
// recycles the payload it received; combined with the interned-VarID
// wire format the round trips run allocation-free in steady state.
package atomicreg

import (
	"fmt"
	"sync"

	"partialdsm/internal/mcs"
	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
)

// Message kinds. A write request is (U32 wseq, U32 rseq, VarVal
// varID/value) where rseq numbers this requester's requests to this
// primary; a write ack echoes (U32 rseq) cumulatively. A read request
// is (U32 rid, U32 varID) and its response (U32 rid, raw value bytes).
// A read bounce is (U32 rid, U32 epoch): the receiver is no longer the
// variable's owner — retry once your own index reaches that epoch.
// Requesters are identified by the message source.
const (
	KindWriteReq   = "atomic.writereq"
	KindWriteAck   = "atomic.writeack"
	KindReadReq    = "atomic.readreq"
	KindReadResp   = "atomic.readresp"
	KindReadBounce = "atomic.bounce"
)

// readRespCap bounds the requester-side read-response buffer. Under
// duplication a read can observe stale responses of earlier reads;
// they queue here until the matching loop discards them, and the
// oldest is evicted if a flood of duplicates ever fills the buffer.
const readRespCap = 16

// readReply is one read response in flight from the handler to the
// reading application goroutine: the request id and the whole received
// payload (value bytes after the 4-byte id), recycled by the reader. A
// nil buf marks a bounce: the addressed node no longer owns the
// variable, retry after reaching bounceEpoch.
type readReply struct {
	rid         uint32
	buf         []byte
	bounceEpoch uint64
}

// heldRead is one read request parked while its primary rejoins after a
// crash, or (during a reconfiguration) while the addressed node is the
// variable's pending next-epoch owner that has not flipped yet.
type heldRead struct {
	from int
	rid  uint32
	xi   int
}

// heldWrite is one write request that reached the variable's next-epoch
// owner before that owner's own commit: the requester flipped first.
// Applied, in arrival order, at the flip. v is a pooled copy.
type heldWrite struct {
	from, wseq int
	rseq       uint32
	xi         int
	v          []byte
}

// migEntry is one staged ownership-transfer value, installed (and
// recorded) only when the epoch actually flips, so an aborted attempt
// leaves no trace in the store or the event logs.
type migEntry struct {
	xi, writer, wseq int
	v                []byte // pooled copy
}

// Node is one atomic-register MCS process.
type Node struct {
	cfg mcs.Config
	id  int

	mu sync.Mutex
	ix *sharegraph.Index // current epoch's index; swapped under mu at a flip

	store mcs.Replicas // authoritative copies (by VarID) this node owns
	// storeTags tags each authoritative copy with its writer and that
	// writer's sequence number, so recovery snapshot candidates can be
	// adopted deterministically (the same-writer comparison is exact;
	// across writers the higher sequence wins, ties to the lower id).
	storeTags []mcs.WriteTag
	wseq      int // durable across CrashRestart: (writer, wseq) pairs must stay unique
	// expected[r] is the next request sequence this primary expects
	// from requester r: anything below was already applied and is
	// re-acked without re-applying (duplicate suppression). A crashed
	// primary re-learns it from each requester's sent count during
	// recovery; re-acking an unapplied pre-crash request is then safe
	// because the requester's own-write cache travels in the same
	// snapshot. The sequence space is per (requester, primary) pair and
	// survives ownership moves — a handoff transfers values, not
	// cursors.
	expected []uint32

	// Requester-side own-write cache: the latest value this node wrote
	// per variable, kept so a crashed primary can re-learn its
	// authoritative copies from the surviving requesters. Volatile —
	// lost with the rest of the node's state on CrashRestart.
	ownVals mcs.Replicas
	ownTags []mcs.WriteTag

	rcv       *mcs.Recovery
	rejoining bool
	// heldReads queues read requests that arrive while this primary is
	// rejoining; they are answered once the snapshot merge completes,
	// so no client observes the half-recovered store.
	heldReads []heldRead

	// Epoch reconfiguration: ownership handoff state.
	rcf       *mcs.Reconfig
	fence     mcs.Fence
	epochCond *sync.Cond // broadcast at every flip; bounced readers wait on it
	mig       []migEntry // staged transfer values, installed at the flip
	// Requests that raced the flip to this (pending) owner — the sender
	// already flipped, this node's commit is still in flight.
	heldEpochReads  []heldRead
	heldEpochWrites []heldWrite

	// Write-completion accounting: every ack carries its request's
	// rseq, and the requester keeps the cumulative maximum — the k-th
	// request to primary p is complete once acks[p] > k. Duplicated or
	// re-sent acks are absorbed by the max; on FIFO channels the
	// accounting coincides with v1's per-pair ack counting.
	ackMu   sync.Mutex
	ackCond *sync.Cond
	acks    []int // next-unacked request sequence, per primary (cumulative)
	sent    []int // write requests sent, per primary (durable; snapshot responses report it)

	// readResp hands read responses from the handler to the reading
	// application goroutine; rid matching discards stale duplicates.
	readResp chan readReply
	rid      uint32 // read-request id counter (mu)
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
			cfg:       cfg,
			id:        i,
			ix:        ix,
			store:     mcs.NewReplicas(ix.NumVars()),
			storeTags: mcs.NewWriteTags(ix.NumVars()),
			expected:  make([]uint32, n),
			ownVals:   mcs.NewReplicas(ix.NumVars()),
			ownTags:   mcs.NewWriteTags(ix.NumVars()),
			acks:      make([]int, n),
			sent:      make([]int, n),
			readResp:  make(chan readReply, readRespCap),
		}
		node.ackCond = sync.NewCond(&node.ackMu)
		node.epochCond = sync.NewCond(&node.mu)
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

// ownerLocked resolves x's owner under the current epoch. Called with
// mu held.
func (n *Node) ownerLocked(xi int) (int, error) {
	own := n.ix.Owner(xi)
	if own < 0 {
		return 0, fmt.Errorf("%w: variable %s has no replicas", mcs.ErrNotReplicated, n.ix.Name(xi))
	}
	return own, nil
}

// issueLocked records one write and, for a remote owner, sends the
// request; it returns the request's completion index on that owner
// (-1 when the write was applied locally). Called with mu held, and
// the send happens with mu still held: a reconfiguration's fence frame
// is sent under the same lock, so a request that passed the fence
// check can never be reordered behind its writer's fence on the
// channel (no write stragglers exist at an ex-owner).
func (n *Node) issueLocked(xi, own int, v []byte) (seq int) {
	wseq := n.wseq
	n.wseq++
	n.ownVals.Set(xi, v)
	n.ownTags[xi] = mcs.WriteTag{Writer: n.id, WSeq: wseq}
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordWrite(n.id, n.ix.Name(xi), v)
	}
	if own == n.id {
		n.store.Set(xi, v)
		n.storeTags[xi] = mcs.WriteTag{Writer: n.id, WSeq: wseq}
		if rec := n.cfg.Recorder; rec != nil {
			rec.RecordApplyAt(n.id, n.id, wseq, n.ix.Name(xi), v, n.ix.Epoch())
		}
		return -1
	}
	n.ackMu.Lock()
	seq = n.sent[own]
	n.sent[own]++
	n.ackMu.Unlock()
	var enc mcs.Enc
	enc.SetBuf(mcs.GetPayload())
	enc.U32(uint32(wseq)).U32(uint32(seq)).VarVal(xi, v)
	payload := enc.Bytes()
	n.cfg.Net.Send(netsim.Message{
		From: n.id, To: own, Kind: KindWriteReq,
		Payload: payload, CtrlBytes: len(payload) - len(v), DataBytes: len(v),
		Vars: n.ix.MsgVars(xi),
	})
	return seq
}

// waitAck blocks until the seq-th request sent to prim is acked. With
// Config.OpDeadlineTicks set the wait is bounded on the virtual clock:
// a request stuck on an unrecovered lossy or partitioned link fails
// fast with an error wrapping mcs.ErrOpDeadline instead of hanging.
func (n *Node) waitAck(prim, seq int) error {
	n.ackMu.Lock()
	defer n.ackMu.Unlock()
	if n.cfg.OpDeadlineTicks > 0 {
		return n.cfg.WaitDeadline(n.id, n.ackCond,
			func() bool { return n.acks[prim] > seq },
			func() string {
				return fmt.Sprintf("atomicreg: node %d write request #%d to primary %d", n.id, seq, prim)
			})
	}
	for n.acks[prim] <= seq {
		n.ackCond.Wait()
	}
	return nil
}

// beginWrite resolves the write's variable and owner under the fence:
// a write to an assignment-changed variable parks until the epoch
// transition resolves, then routes under the (possibly new) epoch.
// Returns with mu HELD on success.
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

// Put performs w_i(x)v with a round trip to x's owner.
func (n *Node) Put(x string, v []byte) error {
	xi, own, err := n.beginWrite(x)
	if err != nil {
		return err
	}
	seq := n.issueLocked(xi, own, v)
	n.mu.Unlock()
	if seq >= 0 {
		return n.waitAck(own, seq) // the write has taken effect atomically
	}
	return nil
}

// pending is an outstanding asynchronous write: it completes when its
// primary's ack arrives (seq < 0 means it was applied locally and is
// already complete).
type pending struct {
	n         *Node
	prim, seq int
}

// Wait blocks until the write has taken effect at its primary.
func (p *pending) Wait() error {
	if p.seq >= 0 {
		return p.n.waitAck(p.prim, p.seq)
	}
	return nil
}

// PutAsync performs w_i(x)v without waiting for the owner's ack;
// Wait blocks until the write has taken effect atomically. Operations
// issued before Wait returns are not linearized after the write. The
// ack accounting matches requests to acks through per-pair FIFO
// order, so on a NonFIFO network PutAsync degrades to the synchronous
// Put (one outstanding request, the v1 discipline).
func (n *Node) PutAsync(x string, v []byte) (mcs.Pending, error) {
	if n.cfg.NonFIFO {
		return mcs.Done, n.Put(x, v)
	}
	xi, own, err := n.beginWrite(x)
	if err != nil {
		return nil, err
	}
	seq := n.issueLocked(xi, own, v)
	n.mu.Unlock()
	if seq < 0 {
		return mcs.Done, nil
	}
	return &pending{n: n, prim: own, seq: seq}, nil
}

// awaitRead blocks on the read-response channel until a reply for rid
// arrives (value or bounce), honouring the operation deadline. The
// AdvanceIdle nudge before each blocking receive lets an otherwise
// idle network jump to the deadline timer.
func (n *Node) awaitRead(rid uint32, x string, own int) (readReply, error) {
	var timeout chan struct{}
	var clk netsim.Clock
	if n.cfg.OpDeadlineTicks > 0 {
		clk = n.cfg.Net.Clock()
		timeout = make(chan struct{})
		clk.After(uint64(n.cfg.OpDeadlineTicks), func() { close(timeout) })
	}
	for {
		var rep readReply
		if timeout != nil {
			select {
			case rep = <-n.readResp:
			default:
				clk.AdvanceIdle()
				select {
				case rep = <-n.readResp:
				case <-timeout:
					err := fmt.Errorf("atomicreg: node %d read of %s from primary %d: no response within OpDeadlineTicks=%d: %w",
						n.id, x, own, n.cfg.OpDeadlineTicks, mcs.ErrOpDeadline)
					if n.cfg.OnFault != nil {
						n.cfg.OnFault(n.id, err)
					}
					return readReply{}, err
				}
			}
		} else {
			rep = <-n.readResp
		}
		if rep.rid != rid {
			if rep.buf != nil {
				mcs.PutPayload(rep.buf)
			}
			continue
		}
		return rep, nil
	}
}

// Get performs r_i(x) with a round trip to x's owner, appending the
// value to dst[:0]. Reads are not fenced during a reconfiguration: a
// read routed to an ex-owner under a stale epoch is bounced with the
// ex-owner's epoch, and the reader retries — against the new owner, or
// locally if ownership moved here — once its own index catches up.
func (n *Node) Get(x string, dst []byte) ([]byte, error) {
	n.mu.Lock()
	xi := n.ix.ID(x)
	if !n.ix.Holds(n.id, xi) {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: node %d, variable %s", mcs.ErrNotReplicated, n.id, x)
	}
	name := n.ix.Name(xi)
	own, err := n.ownerLocked(xi)
	if err != nil {
		n.mu.Unlock()
		return nil, err
	}
	for {
		if own == n.id {
			dst = append(dst[:0], n.store.Get(xi)...)
			n.mu.Unlock()
			break
		}
		rid := n.rid
		n.rid++
		var enc mcs.Enc
		enc.SetBuf(mcs.GetPayload())
		enc.U32(rid).U32(uint32(xi))
		payload := enc.Bytes()
		n.cfg.Net.Send(netsim.Message{
			From: n.id, To: own, Kind: KindReadReq,
			Payload: payload, CtrlBytes: len(payload),
			Vars: n.ix.MsgVars(xi),
		})
		n.mu.Unlock()
		rep, err := n.awaitRead(rid, name, own)
		if err != nil {
			return nil, err
		}
		if rep.buf != nil {
			dst = append(dst[:0], rep.buf[4:]...)
			mcs.PutPayload(rep.buf)
			break
		}
		// Bounced: the addressed node flipped past us. Wait for our own
		// commit to arrive (broadcast at the flip), then re-resolve.
		n.mu.Lock()
		target := rep.bounceEpoch
		if err := n.cfg.WaitDeadline(n.id, n.epochCond,
			func() bool { return n.ix.Epoch() >= target },
			func() string {
				return fmt.Sprintf("atomicreg: node %d read of %s bounced to epoch %d", n.id, x, target)
			}); err != nil {
			n.mu.Unlock()
			return nil, err
		}
		if !n.ix.Holds(n.id, xi) {
			n.mu.Unlock()
			return nil, fmt.Errorf("%w: node %d, variable %s", mcs.ErrNotReplicated, n.id, x)
		}
		if own, err = n.ownerLocked(xi); err != nil {
			n.mu.Unlock()
			return nil, err
		}
	}
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordRead(n.id, name, dst)
	}
	return dst, nil
}

// applyWriteLocked installs one write request at the authoritative
// copy, with duplicate suppression on the (requester, primary) request
// sequence. Called with mu held.
func (n *Node) applyWriteLocked(from, wseq int, rseq uint32, xi int, v []byte, epoch uint64) {
	if rseq < n.expected[from] {
		return // duplicate: re-acked by the caller, not re-applied
	}
	n.expected[from] = rseq + 1
	n.store.Set(xi, v)
	n.storeTags[xi] = mcs.WriteTag{Writer: from, WSeq: wseq}
	if rec := n.cfg.Recorder; rec != nil {
		rec.RecordApplyAt(n.id, from, wseq, n.ix.Name(xi), v, epoch)
	}
}

// sendWriteAck acks request rseq from the requester (also sent for
// suppressed duplicates: the original ack may have been lost).
func (n *Node) sendWriteAck(requester, xi int, rseq uint32) {
	var enc mcs.Enc
	enc.SetBuf(mcs.GetPayload())
	enc.U32(rseq)
	n.cfg.Net.Send(netsim.Message{
		From: n.id, To: requester, Kind: KindWriteAck,
		Payload: enc.Bytes(), CtrlBytes: enc.Len(), Vars: n.ix.MsgVars(xi),
	})
}

// readRespLocked builds the answer to read request rid from the
// authoritative copy of xi; the caller sends it. Called with mu held.
func (n *Node) readRespLocked(reader int, rid uint32, xi int) netsim.Message {
	var enc mcs.Enc
	enc.SetBuf(mcs.GetPayload())
	enc.U32(rid).Raw(n.store.Get(xi))
	return netsim.Message{
		From: n.id, To: reader, Kind: KindReadResp,
		Payload: enc.Bytes(), CtrlBytes: 4, DataBytes: enc.Len() - 4,
		Vars: n.ix.MsgVars(xi),
	}
}

// sendReadBounce tells a reader its request was routed under a stale
// epoch: retry after reaching epoch.
func (n *Node) sendReadBounce(reader, xi int, rid uint32, epoch uint64) {
	var enc mcs.Enc
	enc.SetBuf(mcs.GetPayload())
	enc.U32(rid).U32(uint32(epoch))
	n.cfg.Net.Send(netsim.Message{
		From: n.id, To: reader, Kind: KindReadBounce,
		Payload: enc.Bytes(), CtrlBytes: enc.Len(), Vars: n.ix.MsgVars(xi),
	})
}

// handle dispatches primary-side requests and requester-side replies.
// Every payload is single-destination, so the handler recycles it
// after decoding. Malformed frames are reported through Config.Faultf
// and dropped (a panic on a reliable network, survivable input under
// fault injection).
func (n *Node) handle(msg netsim.Message) {
	switch msg.Kind {
	case KindWriteReq:
		d := mcs.DecOf(msg.Payload)
		wseq := int(d.U32())
		rseq := d.U32()
		xi, v := d.VarVal()
		if err := d.Err(); err != nil {
			n.cfg.Faultf(n.id, "atomicreg: node %d: malformed write request: %v", n.id, err)
			mcs.RecycleFrame(msg)
			return
		}
		if xi < 0 || xi >= len(n.store) {
			n.cfg.Faultf(n.id, "atomicreg: node %d: write request from %d names unknown VarID %d", n.id, msg.From, xi)
			mcs.RecycleFrame(msg)
			return
		}
		n.mu.Lock()
		switch {
		case rseq < n.expected[msg.From]:
			// Duplicate: re-ack without re-applying, wherever ownership
			// currently sits — the requester's cumulative accounting
			// absorbs the extra ack, and a lost original ack is recovered.
		case n.ix.Owner(xi) == n.id:
			n.applyWriteLocked(msg.From, wseq, rseq, xi, v, n.ix.Epoch())
		case n.pendingOwnerLocked(xi):
			// The requester flipped before us: park until our own commit
			// arrives, then apply under the new epoch (arrival order).
			n.heldEpochWrites = append(n.heldEpochWrites, heldWrite{
				from: msg.From, wseq: wseq, rseq: rseq, xi: xi,
				v: append(mcs.GetPayload(), v...),
			})
			n.mu.Unlock()
			mcs.PutPayload(msg.Payload)
			return
		default:
			// A fresh request for a variable this node neither owns nor is
			// about to own: reachable only through message loss (the
			// original died, its retransmit outran the writer's fence).
			// Ack it without applying — the write is lost exactly as it
			// would be on the lossy network that produced this case, and
			// the writer is unblocked instead of retransmitting at a dead
			// end forever.
		}
		n.mu.Unlock()
		mcs.PutPayload(msg.Payload)
		n.sendWriteAck(msg.From, xi, rseq)
	case KindReadReq:
		d := mcs.DecOf(msg.Payload)
		rid := d.U32()
		xi := int(d.U32())
		if err := d.Err(); err != nil {
			n.cfg.Faultf(n.id, "atomicreg: node %d: malformed read request: %v", n.id, err)
			mcs.RecycleFrame(msg)
			return
		}
		if xi < 0 || xi >= len(n.store) {
			n.cfg.Faultf(n.id, "atomicreg: node %d: read request from %d names unknown VarID %d", n.id, msg.From, xi)
			mcs.RecycleFrame(msg)
			return
		}
		mcs.PutPayload(msg.Payload)
		n.mu.Lock()
		switch {
		case n.ix.Owner(xi) != n.id && n.pendingOwnerLocked(xi):
			// Ownership is arriving: the reader flipped before us. Park
			// until the flip installs the transferred value.
			n.heldEpochReads = append(n.heldEpochReads, heldRead{from: msg.From, rid: rid, xi: xi})
			n.mu.Unlock()
			return
		case n.ix.Owner(xi) != n.id:
			// Ownership left in an epoch the reader has not reached.
			epoch := n.ix.Epoch()
			n.mu.Unlock()
			n.sendReadBounce(msg.From, xi, rid, epoch)
			return
		case n.rejoining:
			// Don't serve reads from a half-recovered store: park the
			// request until the snapshot merge completes.
			n.heldReads = append(n.heldReads, heldRead{from: msg.From, rid: rid, xi: xi})
			n.mu.Unlock()
			return
		}
		resp := n.readRespLocked(msg.From, rid, xi)
		n.mu.Unlock()
		n.cfg.Net.Send(resp)
	case KindWriteAck:
		d := mcs.DecOf(msg.Payload)
		rseq := d.U32()
		if err := d.Err(); err != nil {
			n.cfg.Faultf(n.id, "atomicreg: node %d: malformed write ack: %v", n.id, err)
			mcs.RecycleFrame(msg)
			return
		}
		mcs.PutPayload(msg.Payload)
		n.ackMu.Lock()
		if int(rseq)+1 > n.acks[msg.From] {
			n.acks[msg.From] = int(rseq) + 1
			n.ackCond.Broadcast()
		}
		n.ackMu.Unlock()
	case KindReadResp:
		if len(msg.Payload) < 4 {
			n.cfg.Faultf(n.id, "atomicreg: node %d: malformed read response (%d bytes)", n.id, len(msg.Payload))
			mcs.RecycleFrame(msg)
			return
		}
		d := mcs.DecOf(msg.Payload)
		n.deliverReadReply(readReply{rid: d.U32(), buf: msg.Payload})
	case KindReadBounce:
		d := mcs.DecOf(msg.Payload)
		rid := d.U32()
		epoch := uint64(d.U32())
		if err := d.Err(); err != nil {
			n.cfg.Faultf(n.id, "atomicreg: node %d: malformed read bounce: %v", n.id, err)
			mcs.RecycleFrame(msg)
			return
		}
		mcs.PutPayload(msg.Payload)
		n.deliverReadReply(readReply{rid: rid, bounceEpoch: epoch})
	case mcs.KindSnapReq, mcs.KindSnapResp:
		n.rcv.Handle(msg)
	default:
		if mcs.IsEpochKind(msg.Kind) {
			n.rcf.Handle(msg)
			return
		}
		n.cfg.Faultf(n.id, "atomicreg: node %d: unknown message kind %q", n.id, msg.Kind)
		mcs.RecycleFrame(msg)
	}
}

// pendingOwnerLocked reports whether the in-progress reconfiguration
// attempt (if any) makes this node the variable's owner. Called with
// mu held.
func (n *Node) pendingOwnerLocked(xi int) bool {
	next := n.rcf.PendingIndexLocked()
	return next != nil && next.Owner(xi) == n.id
}

// deliverReadReply hands one read reply (value or bounce) to the
// reading application goroutine without blocking the network
// goroutine: under a duplicate flood the oldest undelivered reply is
// evicted (it can only be a stale duplicate of a completed read).
func (n *Node) deliverReadReply(rep readReply) {
	for {
		select {
		case n.readResp <- rep:
			return
		default:
		}
		select {
		case old := <-n.readResp:
			if old.buf != nil {
				mcs.PutPayload(old.buf)
			}
		default:
		}
	}
}

// finishRejoinLocked closes the rejoin window (Recovery.OnDone, node
// lock held): owned variables no surviving requester had a cached
// write for are recorded as ⊥ resets, then the reads parked during the
// window are answered from the recovered store. The sends happen with
// the lock dropped (and re-taken before returning, as OnDone requires).
func (n *Node) finishRejoinLocked() {
	n.rejoining = false
	rec := n.cfg.Recorder
	var outs []netsim.Message
	for _, xi := range n.ix.VarIDs(n.id) {
		if n.ix.Owner(xi) != n.id {
			continue
		}
		if rec != nil && n.storeTags[xi].Writer < 0 {
			rec.RecordRecoverAt(n.id, -1, -1, n.ix.Name(xi), mcs.BottomValue, n.ix.Epoch())
		}
	}
	for _, hr := range n.heldReads {
		outs = append(outs, n.readRespLocked(hr.from, hr.rid, hr.xi))
	}
	n.heldReads = nil
	if len(outs) > 0 {
		n.mu.Unlock()
		for _, m := range outs {
			n.cfg.Net.Send(m)
		}
		n.mu.Lock()
	}
}

// CrashRestart models the node rejoining after a crash with its
// volatile state lost: the authoritative copies, their tags, the
// duplicate-suppression cursors, the own-write cache, any parked
// requests and any in-progress reconfiguration attempt are wiped, to
// be re-learned from the surviving requesters during Recover
// (mcs.CrashRestarter). The write counter and the per-primary request
// numbering survive — receivers key duplicate suppression and ack
// accounting on them, so a restarted requester must not reuse
// positions. Application goroutines blocked on pre-crash round trips
// are released (their requests died with the process).
func (n *Node) CrashRestart() {
	n.mu.Lock()
	for xi := range n.store {
		n.store.Set(xi, mcs.BottomValue)
		n.storeTags[xi] = mcs.WriteTag{Writer: -1}
		n.ownVals.Set(xi, mcs.BottomValue)
		n.ownTags[xi] = mcs.WriteTag{Writer: -1}
	}
	for r := range n.expected {
		n.expected[r] = 0
	}
	n.heldReads = nil
	for _, m := range n.mig {
		mcs.PutPayload(m.v)
	}
	n.mig = nil
	for _, w := range n.heldEpochWrites {
		mcs.PutPayload(w.v)
	}
	n.heldEpochWrites = nil
	n.heldEpochReads = nil
	n.rejoining = true
	n.rcv.Cancel()
	n.rcf.CancelLocked()
	n.fence.LiftLocked()
	n.epochCond.Broadcast()
	n.mu.Unlock()
	n.ackMu.Lock()
	for p := range n.acks {
		if n.sent[p] > n.acks[p] {
			n.acks[p] = n.sent[p]
		}
	}
	n.ackCond.Broadcast()
	n.ackMu.Unlock()
	for {
		select {
		case rep := <-n.readResp:
			if rep.buf != nil {
				mcs.PutPayload(rep.buf)
			}
		default:
			return
		}
	}
}

// Recover starts the rejoin handshake (mcs.CrashRestarter) with every
// variable-sharing neighbour under the current epoch's index — only
// clique members can write through this node's owned variables, so
// together they hold every recoverable value.
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
// outbox — requests are sent directly, with mu held, so the engine's
// fence (sent under the same lock) already travels behind every
// pre-fence request.
func (n *Node) ReconfigFlushLocked() {}

// ReconfigFenceLocked fences writes to the variables whose assignment —
// clique or owner — changes (mcs.ReconfigHooks). Reads stay unfenced;
// a read racing the flip is bounced and retried.
func (n *Node) ReconfigFenceLocked(next *sharegraph.Index) {
	n.fence.ArmLocked(&n.mu, n.id, n.ix, next, false)
}

// ReconfigTransferVarsLocked lists the variables this node becomes
// owner of in the next epoch (mcs.ReconfigHooks): only the owner holds
// the authoritative copy, so plain replica gains need no transfer.
func (n *Node) ReconfigTransferVarsLocked(next *sharegraph.Index) []int {
	var gained []int
	for _, xi := range next.VarIDs(n.id) {
		if next.Owner(xi) == n.id && n.ix.Owner(xi) != n.id {
			gained = append(gained, xi)
		}
	}
	return gained
}

// ReconfigDonorLocked pins the transfer donor to the variable's
// current owner (mcs.ReconfigDonorPicker): it holds the only
// authoritative copy, so the engine's default — the lowest live clique
// member — would hand over a vestigial replica. A dead owner means no
// donor: the variable resets to ⊥ at the flip, the same contract as a
// recovery no peer could answer.
func (n *Node) ReconfigDonorLocked(xi int, cur *sharegraph.Index, live []bool) int {
	own := cur.Owner(xi)
	if own >= 0 && own < len(live) && live[own] {
		return own
	}
	return -1
}

// RejoinVarsLocked lists the variables this node holds that a
// rejoining peer owns (mcs.StateCodec): a crashed primary re-learns its
// authoritative copies from the requesters that wrote through it.
func (n *Node) RejoinVarsLocked(peer int, ids []int) []int {
	for _, xi := range n.ix.VarIDs(n.id) {
		if n.ix.Owner(xi) == peer {
			ids = append(ids, xi)
		}
	}
	return ids
}

// EncodeStateLocked writes per-variable (wseq, value) entries
// (mcs.StateCodec). A migration hands a gaining owner the fence-settled
// authoritative copies, each led by its writer. A rejoin answers a
// crashed primary p from the requester side instead: this node's
// sent-count toward p leads the body (so p rebuilds its
// duplicate-suppression cursor at least as high as every request
// already issued), and the entries are this node's own-write cache —
// the writer is the sender. A request issued while p was down is then
// re-acked without re-applying, which is safe precisely because the
// latest own write per variable rides in this same snapshot.
func (n *Node) EncodeStateLocked(enc *mcs.Enc, peer int, varIDs []int, how mcs.Transfer) (data int, vars []string) {
	vals, tags := n.store, n.storeTags
	if how == mcs.Rejoin {
		vals, tags = n.ownVals, n.ownTags
		n.ackMu.Lock()
		enc.U32(uint32(n.sent[peer]))
		n.ackMu.Unlock()
	}
	countPos := enc.Len()
	enc.U32(0)
	count := 0
	for _, xi := range varIDs {
		t := tags[xi]
		if t.Writer < 0 || how == mcs.Rejoin && t.Writer != n.id {
			continue
		}
		if how == mcs.Migration {
			enc.U32(uint32(t.Writer))
		}
		v := vals.Get(xi)
		enc.U32(uint32(t.WSeq)).VarVal(xi, v)
		vars = append(vars, n.ix.Name(xi))
		data += len(v)
		count++
	}
	enc.PatchU32(countPos, uint32(count))
	return data, vars
}

// MergeStateLocked merges a peer's body (mcs.StateCodec). A migration's
// entries are only staged: the store and the event logs change at the
// flip, so an aborted attempt leaves no trace. A rejoin raises
// expected[from] to that requester's sent count and re-populates the
// authoritative copies from its own-write candidates; adoption is
// deterministic regardless of response arrival order: an empty slot
// always adopts, a same-writer candidate adopts exactly when newer, and
// across writers the higher sequence wins with ties to the lower id.
func (n *Node) MergeStateLocked(d *mcs.Dec, from int, how mcs.Transfer) error {
	if how == mcs.Rejoin {
		if reqs := d.U32(); reqs > n.expected[from] {
			n.expected[from] = reqs
		}
	}
	count := int(d.U32())
	for k := 0; k < count; k++ {
		w := from
		if how == mcs.Migration {
			w = int(d.U32())
		}
		s := int(d.U32())
		xi, v := d.VarVal()
		if err := d.Err(); err != nil {
			return err
		}
		if xi < 0 || xi >= len(n.store) || w < 0 || w >= n.cfg.Net.NumNodes() {
			return fmt.Errorf("atomicreg: entry names unknown VarID %d / writer %d", xi, w)
		}
		if how == mcs.Migration {
			n.mig = append(n.mig, migEntry{xi: xi, writer: w, wseq: s, v: append(mcs.GetPayload(), v...)})
			continue
		}
		cur := n.storeTags[xi]
		if adopt := cur.Writer < 0 || s > cur.WSeq || (s == cur.WSeq && w < cur.Writer); !adopt {
			continue
		}
		n.store.Set(xi, v)
		n.storeTags[xi] = mcs.WriteTag{Writer: w, WSeq: s}
		if rec := n.cfg.Recorder; rec != nil {
			rec.RecordRecoverAt(n.id, w, s, n.ix.Name(xi), v, n.ix.Epoch())
		}
	}
	return d.Err()
}

// ReconfigFlipLocked installs the next epoch (mcs.ReconfigHooks): lost
// ownership wipes the authoritative copy (a stale authority must not
// resurface if ownership ever returns with a dead donor), shed
// replicas wipe the own-write cache too, staged transfers install as
// epoch-stamped migration events, newly-owned variables no donor had a
// value for are recorded as ⊥ resets, and the requests that raced the
// flip to this node — their senders flipped first — are served under
// the new epoch in arrival order. Finally the index swaps, the write
// fence lifts and bounced readers are woken.
func (n *Node) ReconfigFlipLocked(next *sharegraph.Index) {
	rec := n.cfg.Recorder
	for _, xi := range n.ix.VarIDs(n.id) {
		if n.ix.Owner(xi) == n.id && next.Owner(xi) != n.id {
			n.store.Set(xi, mcs.BottomValue)
			n.storeTags[xi] = mcs.WriteTag{Writer: -1}
		}
		if !next.Holds(n.id, xi) {
			n.ownVals.Set(xi, mcs.BottomValue)
			n.ownTags[xi] = mcs.WriteTag{Writer: -1}
		}
	}
	for _, m := range n.mig {
		n.store.Set(m.xi, m.v)
		n.storeTags[m.xi] = mcs.WriteTag{Writer: m.writer, WSeq: m.wseq}
		if rec != nil {
			rec.RecordMigrateAt(n.id, m.writer, m.wseq, next.Name(m.xi), m.v, next.Epoch())
		}
		mcs.PutPayload(m.v)
	}
	n.mig = nil
	if rec != nil && !n.rejoining {
		for _, xi := range next.VarIDs(n.id) {
			if next.Owner(xi) == n.id && n.ix.Owner(xi) != n.id && n.storeTags[xi].Writer < 0 {
				rec.RecordMigrateAt(n.id, -1, -1, next.Name(xi), mcs.BottomValue, next.Epoch())
			}
		}
	}
	n.ix = next
	n.fence.LiftLocked()
	n.epochCond.Broadcast()
	heldW := n.heldEpochWrites
	n.heldEpochWrites = nil
	for _, w := range heldW {
		n.applyWriteLocked(w.from, w.wseq, w.rseq, w.xi, w.v, next.Epoch())
		mcs.PutPayload(w.v)
		n.sendWriteAck(w.from, w.xi, w.rseq)
	}
	heldR := n.heldEpochReads
	n.heldEpochReads = nil
	for _, hr := range heldR {
		n.cfg.Net.Send(n.readRespLocked(hr.from, hr.rid, hr.xi))
	}
}

// ReconfigAbortLocked abandons the attempt (mcs.ReconfigHooks): staged
// transfers are dropped unrecorded and the fence lifts. Requests
// parked for the pending epoch are resolved defensively — their
// senders can only have routed here after flipping, which a decided
// commit precludes from aborting — by re-acking writes unapplied and
// bouncing reads at the current epoch.
func (n *Node) ReconfigAbortLocked() {
	for _, m := range n.mig {
		mcs.PutPayload(m.v)
	}
	n.mig = nil
	heldW := n.heldEpochWrites
	n.heldEpochWrites = nil
	for _, w := range heldW {
		mcs.PutPayload(w.v)
		n.sendWriteAck(w.from, w.xi, w.rseq)
	}
	heldR := n.heldEpochReads
	n.heldEpochReads = nil
	epoch := n.ix.Epoch()
	for _, hr := range heldR {
		n.sendReadBounce(hr.from, hr.xi, hr.rid, epoch)
	}
	n.fence.LiftLocked()
}

var (
	_ mcs.Node                = (*Node)(nil)
	_ mcs.CrashRestarter      = (*Node)(nil)
	_ mcs.ReconfigHooks       = (*Node)(nil)
	_ mcs.ReconfigDonorPicker = (*Node)(nil)
)
