package main

import (
	"fmt"
	"math"
	"time"

	"partialdsm"
	"partialdsm/internal/netsim"
	"partialdsm/internal/workload"
)

// op is one generated application operation.
type op struct {
	node int32
	vi   int32 // variable index into the workload's variable names
	put  bool
}

// spec describes one workload: the cluster it builds, the operation
// tape it drives through the cluster, and the pacing of the tape.
//
// The tape is one period of the operation stream, generated from the
// seed; a run replays whole periods until its time is up, so a
// workload's per-op message counts are a pure function of the seed.
// Every write still stores a value no other write of the run stores
// (the driver stamps a run-wide write counter into it).
type spec struct {
	name string

	cfg    func(seed int64) partialdsm.Config // everything but Transport
	engine string                             // netsim engine under the registered kind
	tape   func(seed int64) []op
	vars   int

	getInto     bool // reads use GetInto into a reused buffer instead of Get
	blockOps    int  // Quiesce after every blockOps ops (0: only at the end of the run)
	verifyUnits int  // length of the history-recording verification pass, in tape units
	// chaos drives the control plane: the tape is paced in phases of
	// chaosPhaseOps ops, each opening a CrashNodeFor window on a
	// rotating victim; a PolicyDriver.Tick follows each block Quiesce;
	// access-control denials are part of the workload; and injected
	// faults rule out matching deliveries to sends in FIFO order.
	chaos bool

	checkEfficiency bool // gate: VerifyEfficiency (Theorem 2)
	checkReplicas   bool // gate: every replica equal after Quiesce
}

// Workload shapes. The sizes are fixed; only the seed varies.
const (
	pramNodes, pramVars, pramReplicas, pramTape = 8, 32, 4, 1024
	cacheNodes, cacheVars, cacheReplicas        = 4, 16, 3
	cacheTape                                   = 8192
	chaosNodes, chaosVars                       = 4, 8
	chaosPhaseOps, chaosBlockOps, chaosPhases   = 600, 150, 2048
	chaosLatency                                = 100 * time.Microsecond

	valueLen = 64
)

// chaosCrashTicks is the crash window: half of netsim.Reliable's
// default retransmit timeout (1<<20 ticks), so frames aimed at the
// crashed node burn a retransmission or two, never the retry budget.
const chaosCrashTicks = 1 << 19

var specs = []*spec{
	{
		name: "pram-storm",
		cfg: func(seed int64) partialdsm.Config {
			return partialdsm.Config{
				Consistency: partialdsm.PRAM,
				Placement:   consecutivePlacement(pramNodes, pramVars, pramReplicas),
				Seed:        seed,
			}
		},
		engine:          netsim.KindSharded,
		vars:            pramVars,
		tape:            func(seed int64) []op { return heldTape(seed, pramNodes, pramVars, pramReplicas, pramTape, 0.9, 0) },
		getInto:         true,
		blockOps:        pramTape,
		verifyUnits:     3,
		checkEfficiency: true,
	},
	{
		name: "cache-rw",
		cfg: func(seed int64) partialdsm.Config {
			return partialdsm.Config{
				Consistency: partialdsm.CacheConsistency,
				Placement:   consecutivePlacement(cacheNodes, cacheVars, cacheReplicas),
				Seed:        seed,
			}
		},
		engine: netsim.KindClassic,
		vars:   cacheVars,
		tape: func(seed int64) []op {
			return heldTape(seed, cacheNodes, cacheVars, cacheReplicas, cacheTape, 0.3, 1.1)
		},
		verifyUnits:   3,
		checkReplicas: true,
	},
	{
		name: "adaptive-chaos",
		cfg: func(seed int64) partialdsm.Config {
			pl := partialdsm.NewPlacement(chaosNodes)
			for n := 0; n < chaosNodes; n++ {
				pl.Assign(n, workload.VarNames(chaosVars)...)
			}
			return partialdsm.Config{
				Consistency:    partialdsm.Atomic,
				Placement:      pl,
				Seed:           seed,
				MaxLatency:     chaosLatency,
				VirtualLatency: true,
				FaultDrop:      0.02,
				FaultDup:       0.02,
				FaultSeed:      seed + 59,
				Reliable:       true,
			}
		},
		engine:      netsim.KindSharded,
		vars:        chaosVars,
		tape:        chaosTape,
		blockOps:    chaosBlockOps,
		verifyUnits: 6,
		chaos:       true,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// consecutivePlacement puts variable j on the `replicas` consecutive
// nodes starting at node j mod nodes.
func consecutivePlacement(nodes, vars, replicas int) *partialdsm.Placement {
	pl := partialdsm.NewPlacement(nodes)
	for j := 0; j < vars; j++ {
		for r := 0; r < replicas; r++ {
			pl.Assign((j+r)%nodes, workload.VarName(j))
		}
	}
	return pl
}

// splitmix is the tape generators' seeded stream.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	x := uint64(*s)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// heldTape draws n operations, each on a uniformly chosen node and one
// of the variables that node holds under consecutivePlacement: uniform
// when skew is 0, else zipf(skew) over the node's held variables in
// placement order rotated by the node's id (a fixed ranking, so the
// seed moves the draws, not which variables are hot). Exactly
// round(putFrac*n) of the operations, at seeded positions, are writes.
func heldTape(seed int64, nodes, vars, replicas, n int, putFrac, skew float64) []op {
	rng := splitmix(uint64(seed)*0x2545F4914F6CDD1D + 1)
	held := make([][]int32, nodes)
	for j := 0; j < vars; j++ {
		for r := 0; r < replicas; r++ {
			node := (j + r) % nodes
			held[node] = append(held[node], int32(j))
		}
	}
	for node, h := range held {
		rot := node % len(h)
		held[node] = append(h[rot:len(h):len(h)], h[:rot]...)
	}
	var cdf []float64
	if skew > 0 {
		cdf = zipfCDF(len(held[0]), skew)
	}
	tape := make([]op, n)
	for i := range tape {
		node := int(rng.next() % uint64(nodes))
		h := held[node]
		var k int
		if cdf != nil {
			u := rng.float()
			for k < len(cdf)-1 && cdf[k] <= u {
				k++
			}
		} else {
			k = int(rng.next() % uint64(len(h)))
		}
		tape[i] = op{node: int32(node), vi: h[k], put: i < int(math.Round(putFrac*float64(n)))}
	}
	for i := n - 1; i > 0; i-- { // seeded write positions: Fisher-Yates over the flags
		k := int(rng.next() % uint64(i+1))
		tape[i].put, tape[k].put = tape[k].put, tape[i].put
	}
	return tape
}

func zipfCDF(n int, skew float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -skew)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// chaosTape is chaosPhases phases of workload.ZipfMix accesses (skew
// 1.6, 65% reads); the hot slices rotate by one variable at every
// phase start.
func chaosTape(seed int64) []op {
	gen := workload.NewZipfMix(seed+13, chaosNodes, chaosVars, 1.6, 0.65)
	names := make(map[string]int32, chaosVars)
	for j, x := range workload.VarNames(chaosVars) {
		names[x] = int32(j)
	}
	tape := make([]op, 0, chaosPhases*chaosPhaseOps)
	for p := 0; p < chaosPhases; p++ {
		if p > 0 {
			gen.Rotate(1)
		}
		for k := 0; k < chaosPhaseOps; k++ {
			a := gen.Next()
			tape = append(tape, op{node: int32(a.Node), vi: names[a.Var], put: !a.Read})
		}
	}
	return tape
}
