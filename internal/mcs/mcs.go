// Package mcs defines the framework shared by the memory consistency
// system protocols: the node configuration, the protocol interface the
// DSM facade drives, the wire-format encoding helpers used to account
// control bytes honestly, and the trace recorder that captures global
// histories and per-node apply logs for the consistency checkers.
//
// One MCS process runs per node (paper §1): the application process
// invokes operations through its local MCS process, which propagates
// variable updates to the replicas.
//
// Beyond the fault-free protocol core, the package carries the shared
// state-transfer machinery. Every protocol has one StateCodec that
// encodes and merges its per-variable state for a peer; crash recovery
// and epoch migration both move state through it, the Transfer
// argument (Rejoin or Migration) adding or leaving out the
// recovery-only metadata. CrashRestarter is the crash/restart/recover
// cycle every protocol implements; Recovery drives the rejoin
// handshake and owns its wire framing (KindSnapReq/KindSnapResp,
// virtual-clock retries bounded by RecoveryMaxRetries, malformed-frame
// faults); WriteTag is the per-variable duplicate-suppression tag
// snapshots and live updates share; and deadline.go holds the
// fail-fast timer (ErrOpDeadline) the blocking protocols arm on every
// request.
//
// reconfig.go adds the control plane for epoch-based runtime
// reconfiguration: Reconfig drives the propose → fence → transfer →
// flip handshake that migrates replicas to a new placement while the
// cluster serves traffic, against the per-protocol ReconfigHooks
// (fence writes to the variables whose clique changes, transfer state
// through the StateCodec, flip to the rebound sharegraph.Index). The
// same handshake migrates per-variable ownership: a protocol whose
// variables have an authoritative owner — the atomic-register primary,
// the cache sequencer — hands the owner's state to its successor in
// the fence→transfer window (ReconfigDonorPicker pins the donor to the
// old owner), and requests that raced the flip are bounced with the
// new epoch and retried by their issuer. The handshake's wire format,
// barrier structure, and abort semantics are documented on Reconfig
// itself.
package mcs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"partialdsm/internal/metrics"
	"partialdsm/internal/model"
	"partialdsm/internal/netsim"
	"partialdsm/internal/sharegraph"
)

// ErrNotReplicated is returned when an application process accesses a
// variable its MCS process does not replicate. In the paper's model
// (§3) process ap_i accesses only the variables of X_i.
var ErrNotReplicated = errors.New("mcs: variable not replicated on this node")

// Node is the per-node protocol interface the DSM facade drives.
// Values are opaque byte strings; the legacy int64 Write/Read API is a
// facade-level shim encoding words as 8 big-endian bytes. Operations
// may be invoked only from the node's single application goroutine;
// the protocol's message handlers run on network goroutines and
// synchronize internally.
type Node interface {
	// ID returns the node identifier (= application process id).
	ID() int
	// Put performs w_i(x)v. The value is fully consumed before Put
	// returns (staged, encoded, recorded); the caller may reuse v.
	// Wait-free protocols return after the local apply; ordering
	// protocols block until the write is ordered/acknowledged.
	Put(x string, v []byte) error
	// PutAsync performs w_i(x)v without blocking on the protocol's
	// ordering round trip: the update is staged/sent before PutAsync
	// returns, and the returned Pending completes when the protocol's
	// Put would have returned. Wait-free protocols complete
	// immediately (they return Done).
	PutAsync(x string, v []byte) (Pending, error)
	// Get performs r_i(x) and returns the value appended to dst[:0]
	// (pass nil to allocate). Reads of never-written variables return
	// the ⊥ bytes (mcs.BottomValue).
	Get(x string, dst []byte) ([]byte, error)
}

// Pending is an asynchronous write completion handle.
type Pending interface {
	// Wait blocks until the write has completed per the protocol's
	// semantics (a no-op for wait-free protocols).
	Wait() error
}

// donePending is the already-complete Pending of wait-free writes.
type donePending struct{}

func (donePending) Wait() error { return nil }

// Done is the completed Pending: wait-free protocols return it from
// PutAsync, so the async fast path allocates nothing.
var Done Pending = donePending{}

// Batcher is implemented by nodes that can hold their outgoing updates
// across several operations and flush them as one frame per
// destination (the wait-free, outbox-based protocols). The facade's
// Batch API brackets its operations with BeginBatch/EndBatch; the
// blocking protocols don't implement it and pipeline via PutAsync
// instead.
type Batcher interface {
	// BeginBatch suspends update flushing for the node.
	BeginBatch()
	// EndBatch resumes flushing and sends everything buffered.
	EndBatch()
}

// CrashRestarter is implemented by every protocol node: it models a
// crash/restart cycle with loss of volatile state, followed by a
// recovery handshake that re-acquires replica state from live peers.
// The facade's CrashNode drives CrashRestart before the
// transport-level netsim.FaultController.Crash disconnects the node;
// RestartNode drives Recover after FaultController.Restart has
// reconnected it, so the snapshot requests ride the live network
// (virtual latency, coalescing and the fault schedule all apply to
// recovery traffic).
type CrashRestarter interface {
	// CrashRestart wipes the node's volatile replica state to ⊥, as if
	// the process had just rejoined after losing memory. Durable
	// identity (the node's own write-sequence counters) survives, so a
	// rejoining node cannot forge stale sequence numbers.
	CrashRestart()
	// Recover starts the rejoin handshake: snapshot requests
	// (KindSnapReq) go to the node's state-sharing peers, and each
	// snapshot response re-seeds per-variable values and protocol
	// metadata (sequence counters, vector clocks, delivery cursors).
	// A rejoin is a state transfer: peers write the responses, and the
	// node merges them, with the protocol's StateCodec in its Rejoin
	// form — the codec epoch migration uses. Recover returns without
	// waiting — the message handler routes responses to
	// Recovery.Handle; unresponsive peers are retried on the virtual
	// clock and reported through Config.OnFault once the retry budget
	// is exhausted.
	Recover()
	// RecoveryStats reports the completed recovery handshakes and the
	// summed virtual ticks each took from Recover to the last peer
	// snapshot (or retry exhaustion).
	RecoveryStats() (recoveries int, ticks uint64)
}

// MaxValueLen bounds a single value's size (64 MiB): large enough for
// any realistic register object, small enough that the u32 wire
// arithmetic and the payload pools stay comfortable.
const MaxValueLen = 64 << 20

// WriteInt performs n.Put(x, v) through the legacy int64
// representation (8 big-endian bytes) — the word-sized convenience the
// facade's Write shim and the protocol tests drive nodes with.
func WriteInt(n Node, x string, v int64) error {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return n.Put(x, b[:])
}

// ReadInt performs n.Get(x) and decodes the legacy 8-byte word. Reads
// of never-written variables return model.BottomInt64.
func ReadInt(n Node, x string) (int64, error) {
	var b [8]byte
	v, err := n.Get(x, b[:0])
	if err != nil {
		return 0, err
	}
	if len(v) != 8 {
		return 0, fmt.Errorf("mcs: value of %s is %d bytes, not an int64 word", x, len(v))
	}
	return int64(binary.BigEndian.Uint64(v)), nil
}

// Config carries everything a protocol needs to instantiate its nodes.
type Config struct {
	// Net is the message-passing substrate — any netsim.Transport
	// (classic goroutine-per-pair, sharded worker pool, …). Protocols
	// install their handlers on it; the caller owns its lifecycle.
	Net netsim.Transport
	// Placement is the variable distribution (the X_i sets). Full
	// replication is just a placement assigning everything everywhere.
	Placement *sharegraph.Placement
	// Metrics receives message accounting; may be nil.
	Metrics *metrics.Collector
	// Recorder captures the global history and per-node logs; may be
	// nil to disable tracing (benchmarks).
	Recorder *Recorder
	// NonFIFO records that the transport delivers without per-pair
	// FIFO order. The blocking protocols' asynchronous writes infer
	// completion and preserve program order from per-pair FIFO, so
	// with NonFIFO set their PutAsync degrades to the synchronous Put
	// (single outstanding request — the v1 discipline, correct on
	// reordering channels).
	NonFIFO bool
	// CoalesceBatch bounds how many updates the fire-and-forget
	// protocols (pram, slow, causalfull, causalpart) buffer per
	// destination before flushing one batched frame. 0 or 1 sends every
	// update immediately. Blocking protocols (seqcons, cachepart,
	// atomicreg) ignore it: their writes wait on a round trip, so
	// holding the request back would only add latency.
	CoalesceBatch int
	// CoalesceFlushTicks, when > 0 with coalescing on, flushes buffered
	// updates once the transport's virtual clock (netsim.Clock) has
	// advanced that many ticks past the first buffered record — so many
	// message deliveries later, or as soon as the network goes idle —
	// bounding how long a silent writer's tail can sit unsent.
	CoalesceFlushTicks int
	// CoalesceAdaptive, with coalescing on, flushes a destination's
	// frame as soon as that destination has no inbound traffic in
	// flight (netsim.PairMonitor): latency-bound workloads keep the
	// message reduction without waiting out a batch or deadline.
	CoalesceAdaptive bool
	// OpDeadlineTicks, when > 0, bounds how many virtual ticks a
	// blocking operation — the ordering round trips of the sequential,
	// cache and atomic protocols — may wait for network progress. On
	// expiry the operation fails fast with an error wrapping
	// ErrOpDeadline (also dispatched to OnFault when set) instead of
	// hanging forever on a lost request; an asynchronous write's
	// Pending completes with the same error. 0 (the default) waits
	// unboundedly — the right behavior on a reliable network, where
	// the round trip always completes.
	OpDeadlineTicks int
	// OnFault, when set, receives protocol-detected faults — a handler
	// hit a malformed or unknown frame (wrong kind, out-of-range VarID)
	// that a correct peer never sends. The handler reports the fault,
	// drops the frame, and keeps serving: on a faulty network (dropped,
	// duplicated, or corrupted traffic) this is survivable input, not a
	// local invariant violation. When nil, protocols panic instead —
	// the right behavior on a reliable network, where such a frame can
	// only mean a bug. OnFault may be called concurrently from network
	// goroutines and must not block.
	OnFault func(node int, err error)
}

// Faultf dispatches a protocol-detected fault on node to OnFault, or
// panics when no sink is configured (the reliable-network default:
// a malformed frame then proves a protocol bug, and silence would
// hide it). Handlers call it and then drop the offending frame.
func (c Config) Faultf(node int, format string, args ...any) {
	err := fmt.Errorf(format, args...)
	if c.OnFault == nil {
		panic(err.Error())
	}
	c.OnFault(node, err)
}

// ApplyFlushPolicy wires the Config's CoalesceFlushTicks /
// CoalesceAdaptive settings into the given outboxes, all guarded by
// the same node mutex; protocols call it right after NewOutbox.
func (c Config) ApplyFlushPolicy(mu *sync.Mutex, outs ...*Outbox) {
	for _, o := range outs {
		o.SetFlushPolicy(mu, c.CoalesceFlushTicks, c.CoalesceAdaptive)
	}
}

// BottomValue is the byte representation of the shared-variable
// initial value ⊥ — 8 big-endian bytes encoding model.BottomInt64, so
// the legacy int64 shim observes exactly the v1 initial value. Do not
// mutate.
var BottomValue = []byte(model.Bottom)

// Replicas is a VarID-indexed local store of byte-string values. Each
// entry keeps its backing array across overwrites, so a steady-state
// Set of a value no larger than the entry's capacity allocates
// nothing — the byte-value analogue of the v1 flat []int64 store.
type Replicas [][]byte

// NewReplicas returns a replica store with every entry initialized to
// ⊥ — the common starting state of every protocol's local store.
func NewReplicas(numVars int) Replicas {
	r := make(Replicas, numVars)
	for i := range r {
		r[i] = append(make([]byte, 0, 16), BottomValue...)
	}
	return r
}

// Set overwrites entry xi with a copy of v, reusing the entry's
// backing array when it is large enough.
func (r Replicas) Set(xi int, v []byte) {
	r[xi] = append(r[xi][:0], v...)
}

// Get returns entry xi. The result aliases the store: callers must
// copy before releasing the node lock.
func (r Replicas) Get(xi int) []byte { return r[xi] }

// Validate checks structural agreement between network and placement.
func (c Config) Validate() error {
	if c.Net == nil {
		return errors.New("mcs: config needs a network")
	}
	if c.Placement == nil {
		return errors.New("mcs: config needs a placement")
	}
	if c.Net.NumNodes() != c.Placement.NumProcs() {
		return fmt.Errorf("mcs: network has %d nodes but placement has %d processes",
			c.Net.NumNodes(), c.Placement.NumProcs())
	}
	return nil
}
