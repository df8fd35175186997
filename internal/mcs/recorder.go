package mcs

import (
	"fmt"
	"sync"

	"partialdsm/internal/check"
	"partialdsm/internal/model"
)

// Recorder captures, concurrently and race-free, the global history of
// application operations (per-process program order) and the per-node
// event logs (apply order of writes plus local reads) that the witness
// validators in internal/check consume.
type Recorder struct {
	mu       sync.Mutex
	numProcs int
	// Per-process operation sequences forming the global history.
	ops [][]recordedOp
	// Per-node event logs.
	logs [][]check.Event
	// Per-process count of issued writes, to assign write sequence
	// numbers (WSeq).
	writeSeq []int
	// observer, when set, receives every event as it is recorded (live
	// runtime verification). Called with the recorder lock held; it
	// must not call back into the recorder.
	observer func(node int, e check.Event)
}

// SetObserver installs a live event observer (e.g. a check.Monitor).
// Must be called before any operation is recorded.
func (r *Recorder) SetObserver(f func(node int, e check.Event)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observer = f
}

type recordedOp struct {
	isWrite bool
	v       string
	val     model.Value
}

// NewRecorder returns a recorder for numProcs processes/nodes.
func NewRecorder(numProcs int) *Recorder {
	return &Recorder{
		numProcs: numProcs,
		ops:      make([][]recordedOp, numProcs),
		logs:     make([][]check.Event, numProcs),
		writeSeq: make([]int, numProcs),
	}
}

// NumProcs returns the number of processes the recorder tracks.
func (r *Recorder) NumProcs() int { return r.numProcs }

// RecordWrite records that process p issued a write of v to x and
// returns the write's per-process sequence number. Protocols must call
// this exactly once per write, from the issuing application goroutine.
// The value bytes are copied; the caller keeps ownership of v.
func (r *Recorder) RecordWrite(p int, x string, v []byte) (wseq int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	wseq = r.writeSeq[p]
	r.writeSeq[p]++
	r.ops[p] = append(r.ops[p], recordedOp{isWrite: true, v: x, val: model.ValueOf(v)})
	return wseq
}

// RecordRead records that process p read v from x, both in the global
// history and in node p's event log. The value bytes are copied.
func (r *Recorder) RecordRead(p int, x string, v []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	val := model.ValueOf(v)
	r.ops[p] = append(r.ops[p], recordedOp{v: x, val: val})
	e := check.Event{IsRead: true, Var: x, Val: val}
	r.logs[p] = append(r.logs[p], e)
	if r.observer != nil {
		r.observer(p, e)
	}
}

// RecordApply records that node applied the wseq-th write of writer
// (x := v) to its local replica. Protocols call this for local writes
// too, at local-apply time.
// The value bytes are copied.
func (r *Recorder) RecordApply(node, writer, wseq int, x string, v []byte) {
	r.RecordApplyAt(node, writer, wseq, x, v, 0)
}

// RecordApplyAt is RecordApply with an explicit placement-epoch stamp,
// for protocols whose witness is location-sensitive (the atomic
// register's owner condition) under migratable ownership.
func (r *Recorder) RecordApplyAt(node, writer, wseq int, x string, v []byte, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := check.Event{Writer: writer, WSeq: wseq, Var: x, Val: model.ValueOf(v), Epoch: epoch}
	r.logs[node] = append(r.logs[node], e)
	if r.observer != nil {
		r.observer(node, e)
	}
}

// RecordRecover records that node re-acquired x = v — the wseq-th
// write of writer — from a peer snapshot during crash recovery, rather
// than by applying the write's own update message. Recovery events
// enter the node's event log and reach the observer (the witnesses
// re-anchor the node's position instead of enforcing gapless apply
// order across them) but not the global history: the operation itself
// was already recorded by its writer. A recovery of a variable to ⊥
// with writer -1 marks a reset — no live peer knew a value. The value
// bytes are copied.
func (r *Recorder) RecordRecover(node, writer, wseq int, x string, v []byte) {
	r.RecordRecoverAt(node, writer, wseq, x, v, 0)
}

// RecordRecoverAt is RecordRecover with an explicit placement-epoch
// stamp.
func (r *Recorder) RecordRecoverAt(node, writer, wseq int, x string, v []byte, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := check.Event{IsRecover: true, Writer: writer, WSeq: wseq, Var: x, Val: model.ValueOf(v), Epoch: epoch}
	r.logs[node] = append(r.logs[node], e)
	if r.observer != nil {
		r.observer(node, e)
	}
}

// RecordMigrate records that node adopted x = v — the wseq-th write of
// writer — from a donor's transfer snapshot while gaining the variable
// in an epoch reconfiguration. Like recovery events, migration events
// enter the node's event log and reach the observer but not the global
// history. A migration of a variable to ⊥ with writer -1 marks a reset
// — no live donor held a value. The value bytes are copied.
func (r *Recorder) RecordMigrate(node, writer, wseq int, x string, v []byte) {
	r.RecordMigrateAt(node, writer, wseq, x, v, 0)
}

// RecordMigrateAt is RecordMigrate with an explicit placement-epoch
// stamp (the epoch the node flipped to when it adopted the value).
func (r *Recorder) RecordMigrateAt(node, writer, wseq int, x string, v []byte, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := check.Event{IsMigrate: true, Writer: writer, WSeq: wseq, Var: x, Val: model.ValueOf(v), Epoch: epoch}
	r.logs[node] = append(r.logs[node], e)
	if r.observer != nil {
		r.observer(node, e)
	}
}

// RecordTransfer records a value adopted through a StateCodec merge:
// a recovery event for a Rejoin, a migration event for a Migration.
func (r *Recorder) RecordTransfer(how Transfer, node, writer, wseq int, x string, v []byte, epoch uint64) {
	if how == Rejoin {
		r.RecordRecoverAt(node, writer, wseq, x, v, epoch)
	} else {
		r.RecordMigrateAt(node, writer, wseq, x, v, epoch)
	}
}

// History materializes the recorded global history.
func (r *Recorder) History() (*model.History, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := model.NewBuilder(r.numProcs)
	for p := 0; p < r.numProcs; p++ {
		for _, o := range r.ops[p] {
			if o.isWrite {
				b.WriteVal(p, o.v, o.val)
			} else if o.val == model.Bottom {
				b.ReadInit(p, o.v)
			} else {
				b.ReadVal(p, o.v, o.val)
			}
		}
	}
	return b.History()
}

// Logs returns a deep copy of the per-node event logs.
func (r *Recorder) Logs() [][]check.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]check.Event, r.numProcs)
	for i := range r.logs {
		out[i] = append([]check.Event(nil), r.logs[i]...)
	}
	return out
}

// OpCount returns the total number of recorded operations.
func (r *Recorder) OpCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ops := range r.ops {
		n += len(ops)
	}
	return n
}

// String summarizes the recorder state.
func (r *Recorder) String() string {
	return fmt.Sprintf("recorder(%d procs, %d ops)", r.numProcs, r.OpCount())
}
