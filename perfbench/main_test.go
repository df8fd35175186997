package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tiny is a run length that makes each window of a run one tape unit.
const tiny = time.Millisecond

// benchmarkFile is the benchmark's metric list, at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsSmoke runs every workload at the smallest size, untraced
// and traced, and checks that the gate passes and that every metric
// BENCHMARK.json names is printed with the unit it names.
func TestWorkloadsSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(specs))
	}
	for _, w := range b.Workloads {
		s, err := specByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(s.name, func(t *testing.T) {
			e2e := runE2E(s, 1, tiny)
			if !e2e.Correct || e2e.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d: %s", e2e.Correct, e2e.Attempted, e2e.Error)
			}
			led := runLedger(s, 1, tiny, "")
			if !led.Correct || led.Attempted == 0 {
				t.Fatalf("traced run: correct=%v attempted=%d: %s", led.Correct, led.Attempted, led.Error)
			}
			for _, m := range b.EndToEnd {
				got, ok := e2e.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("end-to-end metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				} else if got.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; every end-to-end metric must be positive", m.Name, got.Value)
				}
			}
			for _, m := range b.PerLayer {
				if m.Name == "trace.overhead_share" { // run.py derives it from both runs
					if _, ok := led.Metrics["trace.ops_per_s"]; !ok {
						t.Error("traced run does not report trace.ops_per_s")
					}
					continue
				}
				got, ok := led.Metrics[m.Name]
				if !ok {
					got, ok = e2e.Metrics[m.Name]
				}
				if !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
		})
	}
}

// TestSameSeedCountsIdentical checks that the message-count metrics of
// the fault-free workloads are a pure function of the seed: a timed run
// and a run of a different number of tape units agree to the last bit.
func TestSameSeedCountsIdentical(t *testing.T) {
	for _, name := range []string{"pram-storm", "cache-rw"} {
		s, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		timed := runE2E(s, 5, tiny)
		if !timed.Correct {
			t.Fatalf("%s: gate failed: %s", name, timed.Error)
		}
		r, err := build(s, 5, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 3; u++ {
			r.unit()
		}
		r.quiesce(false)
		st := r.c.Stats()
		r.c.Close()
		if r.firstErr != nil {
			t.Fatal(r.firstErr)
		}
		if r.attempted == timed.Attempted {
			t.Fatalf("%s: both runs attempted %d ops; the check needs runs of different lengths", name, r.attempted)
		}
		for m, v := range map[string]float64{
			"msgs_per_op":       float64(st.Msgs) / float64(r.attempted),
			"ctrl_bytes_per_op": float64(st.CtrlBytes) / float64(r.attempted),
		} {
			if timed.Metrics[m].Value != v {
				t.Errorf("%s %s: %v after %d ops, %v after %d ops", name, m,
					timed.Metrics[m].Value, timed.Attempted, v, r.attempted)
			}
		}
	}
}

// TestTapesFollowSeed checks that a seed fixes the operation tape and
// that the write share is exact.
func TestTapesFollowSeed(t *testing.T) {
	for _, s := range specs {
		a, b, c := s.tape(3), s.tape(3), s.tape(4)
		if len(a) != len(b) || len(a) == 0 {
			t.Fatalf("%s: tape lengths %d and %d", s.name, len(a), len(b))
		}
		same := true
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed, different op %d", s.name, i)
			}
			same = same && a[i] == c[i]
		}
		if same {
			t.Errorf("%s: seeds 3 and 4 give the same tape", s.name)
		}
	}
	for _, tc := range []struct {
		name string
		puts int
	}{{"pram-storm", 922}, {"cache-rw", 2458}} {
		s, _ := specByName(tc.name)
		puts := 0
		for _, o := range s.tape(9) {
			if o.put {
				puts++
			}
		}
		if puts != tc.puts {
			t.Errorf("%s: %d writes on the tape, want %d", tc.name, puts, tc.puts)
		}
	}
}
