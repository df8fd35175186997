package sharegraph

import (
	"fmt"
	"sync/atomic"
)

// Index is the frozen, allocation-free view of a Placement that the
// protocol hot paths run on. Variable names are interned into dense
// VarIDs (0 … NumVars-1, in sorted-name order), and every per-variable
// set the protocols consult — the replica clique C(x), the peer set
// C(x)∖{p}, the X_p membership — is precomputed into int slices, so a
// Read/Write resolves its variable with one map lookup and then never
// touches a map or allocates again.
//
// An Index is immutable. Placement.Index returns the current one and
// builds it lazily; a later Assign invalidates it, so callers must
// capture the Index only after the placement is fully constructed.
// Returned slices are shared — callers must not modify them.
//
// Indexes are epoch-versioned: the one a Placement builds is epoch 0,
// and Rebind derives successor epochs for runtime reconfiguration.
// Because the variable universe may not change across epochs, VarIDs
// are stable for the lifetime of a cluster — a name interned under one
// epoch's Index resolves to the same dense id under every other.
type Index struct {
	epoch    uint64
	numProcs int
	vars     []string       // id → name, sorted
	ids      map[string]int // name → id
	holds    [][]bool       // holds[p][id]
	cliques  [][]int        // cliques[id] = C(x), sorted
	varsOf   [][]int        // varsOf[p] = X_p as sorted ids
	peers    [][][]int      // peers[p][id] = C(x) ∖ {p}, sorted
	msgVars  [][]string     // msgVars[id] = the canonical {name} slice
	owner    []int          // owner[id]: the variable's primary/sequencer
}

// Epoch returns the placement epoch this index describes. Placement-
// built indexes are epoch 0; Rebind stamps successors.
func (ix *Index) Epoch() uint64 { return ix.epoch }

// NumProcs returns the number of processes.
func (ix *Index) NumProcs() int { return ix.numProcs }

// NumVars returns the size of the variable universe.
func (ix *Index) NumVars() int { return len(ix.vars) }

// ID returns the dense VarID of x, or -1 when x is not in the universe.
func (ix *Index) ID(x string) int {
	id, ok := ix.ids[x]
	if !ok {
		return -1
	}
	return id
}

// Name returns the variable name of a VarID.
func (ix *Index) Name(id int) string { return ix.vars[id] }

// Holds reports whether process p replicates the variable with VarID id.
func (ix *Index) Holds(p, id int) bool {
	return id >= 0 && id < len(ix.vars) && ix.holds[p][id]
}

// Clique returns C(x) for a VarID: the sorted processes replicating it.
func (ix *Index) Clique(id int) []int { return ix.cliques[id] }

// VarIDs returns X_p as sorted VarIDs.
func (ix *Index) VarIDs(p int) []int { return ix.varsOf[p] }

// Peers returns C(x) ∖ {p}: the processes a write by p on the variable
// must be propagated to.
func (ix *Index) Peers(p, id int) []int { return ix.peers[p][id] }

// MsgVars returns the canonical one-element variable list for messages
// carrying information about exactly this variable. The slice is shared
// across every message ever sent about the variable: callers must
// neither modify nor recycle it.
func (ix *Index) MsgVars(id int) []string { return ix.msgVars[id] }

// Owner returns the variable's owner under this index: the process
// acting as its primary (atomic registers) or sequencer (cache
// consistency). Defaults to the lowest member of C(x) unless the
// placement pinned a different owner with SetOwner; -1 when the
// variable has no replicas.
func (ix *Index) Owner(id int) int { return ix.owner[id] }

// Index returns the placement's dense index, building it on first use.
// Assign invalidates the index, so capture it only once the placement
// is fully constructed (protocol constructors do).
func (pl *Placement) Index() *Index {
	if ix := pl.idx.Load(); ix != nil {
		return ix
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if ix := pl.idx.Load(); ix != nil {
		return ix
	}
	ix := pl.buildIndex()
	pl.idx.Store(ix)
	return ix
}

// MaxVars caps the variable universe at 2^24: the wire format packs
// VarIDs into the low 24 bits of the value-tag word (mcs.Enc.VarVal).
const MaxVars = 1 << 24

// buildIndex materializes the dense tables. Called with pl.mu held.
func (pl *Placement) buildIndex() *Index {
	n := pl.numProcs
	if len(pl.vars) > MaxVars {
		panic(fmt.Sprintf("sharegraph: %d variables exceed the wire format's %d-variable universe", len(pl.vars), MaxVars))
	}
	ix := &Index{
		numProcs: n,
		vars:     append([]string(nil), pl.vars...),
		ids:      make(map[string]int, len(pl.vars)),
		holds:    make([][]bool, n),
		cliques:  make([][]int, len(pl.vars)),
		varsOf:   make([][]int, n),
		peers:    make([][][]int, n),
		msgVars:  make([][]string, len(pl.vars)),
	}
	for id, name := range ix.vars {
		ix.ids[name] = id
		ix.msgVars[id] = []string{name}
	}
	for p := 0; p < n; p++ {
		ix.holds[p] = make([]bool, len(ix.vars))
		for id, name := range ix.vars {
			if pl.holds[p][name] {
				ix.holds[p][id] = true
				ix.varsOf[p] = append(ix.varsOf[p], id)
			}
		}
	}
	for id := range ix.vars {
		c := []int{}
		for p := 0; p < n; p++ {
			if ix.holds[p][id] {
				c = append(c, p)
			}
		}
		ix.cliques[id] = c
	}
	ix.owner = make([]int, len(ix.vars))
	for id, name := range ix.vars {
		if p, ok := pl.owners[name]; ok {
			ix.owner[id] = p
		} else if c := ix.cliques[id]; len(c) > 0 {
			ix.owner[id] = c[0]
		} else {
			ix.owner[id] = -1
		}
	}
	for p := 0; p < n; p++ {
		ix.peers[p] = make([][]int, len(ix.vars))
		for id := range ix.vars {
			peers := []int{}
			for _, q := range ix.cliques[id] {
				if q != p {
					peers = append(peers, q)
				}
			}
			ix.peers[p][id] = peers
		}
	}
	return ix
}

// Rebind derives the Index of a successor epoch from a proposed
// placement. The proposal must keep the process count and the variable
// universe of the current index: VarIDs are assigned in sorted-name
// order, so an identical universe guarantees every dense id — and with
// it every interned name, wire frame and replica-array slot — means the
// same variable before and after the flip. Only the clique tables
// change. The returned index is freshly built (never the placement's
// cached epoch-0 index) and stamped with the given epoch.
func (ix *Index) Rebind(next *Placement, epoch uint64) (*Index, error) {
	if next == nil {
		return nil, fmt.Errorf("sharegraph: rebind needs a placement")
	}
	if next.NumProcs() != ix.numProcs {
		return nil, fmt.Errorf("sharegraph: rebind changes the process count from %d to %d",
			ix.numProcs, next.NumProcs())
	}
	nvars := next.Vars()
	i, j := 0, 0
	for i < len(ix.vars) || j < len(nvars) {
		switch {
		case j >= len(nvars) || (i < len(ix.vars) && ix.vars[i] < nvars[j]):
			return nil, fmt.Errorf("sharegraph: rebind drops variable %q from the universe", ix.vars[i])
		case i >= len(ix.vars) || ix.vars[i] > nvars[j]:
			return nil, fmt.Errorf("sharegraph: rebind adds variable %q to the universe", nvars[j])
		default:
			i++
			j++
		}
	}
	next.mu.Lock()
	nix := next.buildIndex()
	next.mu.Unlock()
	nix.epoch = epoch
	return nix, nil
}

// AsPlacement rematerializes the placement this index was built from,
// so share-graph analyses that live on Placement — XRelevant, hoop
// enumeration — can run against a rebound epoch's index. Every variable
// of a valid index has at least one holder (Rebind enforces a constant
// universe), so the reconstruction preserves the variable set.
func (ix *Index) AsPlacement() *Placement {
	pl := NewPlacement(ix.numProcs)
	for p := 0; p < ix.numProcs; p++ {
		for _, id := range ix.varsOf[p] {
			pl.Assign(p, ix.vars[id])
		}
	}
	for id, name := range ix.vars {
		if ix.owner[id] >= 0 && len(ix.cliques[id]) > 0 && ix.owner[id] != ix.cliques[id][0] {
			pl.SetOwner(name, ix.owner[id])
		}
	}
	return pl
}

// SameClique reports whether the variable with VarID id has the same
// replica clique under both indexes. Reconfiguration engines use it to
// decide which variables need fencing and transfer across an epoch
// flip.
func SameClique(a, b *Index, id int) bool {
	ca, cb := a.Clique(id), b.Clique(id)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// SameAssignment reports whether the variable keeps both its replica
// clique and its owner across the two indexes. Owner-aware protocols
// (atomic registers, cache consistency) fence on this instead of
// SameClique, so a pure owner move inside an unchanged clique still
// gets the fence→transfer window it needs.
func SameAssignment(a, b *Index, id int) bool {
	return SameClique(a, b, id) && a.Owner(id) == b.Owner(id)
}

// Neighbors returns the processes sharing at least one variable with p
// under this index, sorted. Unlike Placement.Neighbors it reflects the
// index's epoch, so recovery peer sets stay correct after a
// reconfiguration.
func (ix *Index) Neighbors(p int) []int {
	seen := make([]bool, ix.numProcs)
	for _, xi := range ix.varsOf[p] {
		for _, q := range ix.peers[p][xi] {
			seen[q] = true
		}
	}
	var out []int
	for q, ok := range seen {
		if ok {
			out = append(out, q)
		}
	}
	return out
}

// AppendShared appends to dst the VarIDs both p and q hold under this
// index, ascending: the variables a recovery snapshot between the two
// may mention.
func (ix *Index) AppendShared(dst []int, p, q int) []int {
	for _, id := range ix.varsOf[p] {
		if ix.holds[q][id] {
			dst = append(dst, id)
		}
	}
	return dst
}

// Gained returns the VarIDs p holds under next but not under this
// index, ascending: the replicas p must fetch before it can serve the
// next epoch.
func (ix *Index) Gained(next *Index, p int) []int {
	var out []int
	for _, id := range next.varsOf[p] {
		if !ix.holds[p][id] {
			out = append(out, id)
		}
	}
	return out
}

// idxPtr wraps atomic.Pointer so Placement's zero-value-unfriendly
// construction keeps working (NewPlacement allocates the struct).
type idxPtr = atomic.Pointer[Index]

// NumVars returns the size of the variable universe.
func (pl *Placement) NumVars() int { return pl.Index().NumVars() }

// VarID returns the dense id of x, or -1 when x is unknown. IDs are
// assigned in sorted-name order and are stable only until the next
// Assign.
func (pl *Placement) VarID(x string) int { return pl.Index().ID(x) }

// VarName returns the variable name for a dense id. It panics when id
// is out of range, mirroring a slice access.
func (pl *Placement) VarName(id int) string {
	ix := pl.Index()
	if id < 0 || id >= ix.NumVars() {
		panic(fmt.Sprintf("sharegraph: VarID %d out of range [0,%d)", id, ix.NumVars()))
	}
	return ix.Name(id)
}
