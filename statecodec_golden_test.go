// State-transfer frame goldens: the rejoin snapshot (mcs.KindSnapResp)
// and the migration body (mcs.KindEpochMigResp) each protocol sends are
// pinned byte for byte, together with their control/data accounting.
// testdata/statecodec_frames.json records the frames of one
// deterministic scenario per protocol: a 4-node partial placement, a
// few writes (each quiesced before the next, so every replica settles
// on the same state), a crash and rejoin of node 1, then one
// Reconfigure that moves replicas and ownership.
//
// Regenerating the file with -update-statecodec re-records whatever the
// current implementation sends: do that only to intentionally change
// the state-transfer wire format, and say so in the commit.
package partialdsm

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"partialdsm/internal/mcs"
	"partialdsm/internal/netsim"
)

var updateStateCodec = flag.Bool("update-statecodec", false,
	"re-record testdata/statecodec_frames.json from the current implementation (changes the pinned wire format)")

const stateCodecPath = "testdata/statecodec_frames.json"

// codecFrame is one captured state-transfer send. Vars is the
// accounting set the metrics collector consumes (sorted: it is not on
// the wire, and its order carries no meaning).
type codecFrame struct {
	From    int      `json:"from"`
	To      int      `json:"to"`
	Payload string   `json:"payload"` // hex
	Ctrl    int      `json:"ctrl"`
	Data    int      `json:"data"`
	Vars    []string `json:"vars"`
}

// codecFrames is one protocol's captured rejoin and migration frames,
// each list in (from, to) order.
type codecFrames struct {
	SnapResp []codecFrame `json:"snapresp"`
	MigResp  []codecFrame `json:"migresp"`
}

// captureNetwork is the classic engine with every state-transfer Send
// recorded (payload and vars copied at send time: both are recycled
// with the frame).
type captureNetwork struct {
	*netsim.Network
	mu     sync.Mutex
	frames map[string][]codecFrame // by message kind
}

func (c *captureNetwork) Send(m netsim.Message) {
	if m.Kind == mcs.KindSnapResp || m.Kind == mcs.KindEpochMigResp {
		vars := append([]string(nil), m.Vars...)
		sort.Strings(vars)
		c.mu.Lock()
		c.frames[m.Kind] = append(c.frames[m.Kind], codecFrame{
			From: m.From, To: m.To, Payload: hex.EncodeToString(m.Payload),
			Ctrl: m.CtrlBytes, Data: m.DataBytes, Vars: vars,
		})
		c.mu.Unlock()
	}
	c.Network.Send(m)
}

// take returns and clears the frames of one kind, in (from, to) order.
func (c *captureNetwork) take(kind string) []codecFrame {
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := c.frames[kind]
	delete(c.frames, kind)
	sort.SliceStable(fs, func(i, j int) bool {
		if fs[i].From != fs[j].From {
			return fs[i].From < fs[j].From
		}
		return fs[i].To < fs[j].To
	})
	if fs == nil {
		fs = []codecFrame{}
	}
	return fs
}

var (
	captureOnce sync.Once
	captureMu   sync.Mutex
	captureLast *captureNetwork
)

const captureKind = "statecodec-capture"

func registerCaptureTransport() {
	captureOnce.Do(func() {
		netsim.Register(captureKind, func(n int, opts netsim.Options) netsim.Transport {
			c := &captureNetwork{Network: netsim.NewNetwork(n, opts), frames: map[string][]codecFrame{}}
			captureMu.Lock()
			captureLast = c
			captureMu.Unlock()
			return c
		})
	})
}

// stateCodecScenario runs the pinned scenario for one protocol and
// returns the captured frames.
func stateCodecScenario(t *testing.T, cons Consistency) codecFrames {
	t.Helper()
	registerCaptureTransport()
	lists := [][]string{
		{"a", "b", "c"},
		{"a", "b", "d"},
		{"b", "c", "d", "e"},
		{"c", "e", "f"},
	}
	c, err := New(Config{Consistency: cons, Placement: PlacementFromLists(lists), Transport: captureKind})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	captureMu.Lock()
	capt := captureLast
	captureMu.Unlock()

	quiesce := func() {
		t.Helper()
		if err := c.Quiesce(); err != nil {
			t.Fatal(err)
		}
	}
	// Two rounds of writes by every holder, values of varying length
	// (the VarVal framing has an 8-byte fast path and a tagged one).
	for round := 0; round < 2; round++ {
		for p, vars := range lists {
			for _, x := range vars {
				v := []byte(fmt.Sprintf("%s/%d/%d", x, p, round))
				if round == 1 && p == 2 {
					v = []byte("eight-by")
				}
				if err := c.Node(p).Put(x, v); err != nil {
					t.Fatal(err)
				}
				quiesce()
			}
		}
	}
	if err := c.CrashNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	quiesce()
	var got codecFrames
	got.SnapResp = capt.take(mcs.KindSnapResp)

	// Node 1 gains e, node 3 gains a and b; d's owner moves from 1 to 2 and
	// b's from 0 to 1 (the owner protocols transfer only owner moves).
	next := NewPlacement(4).
		Assign(0, "a", "b", "c").
		Assign(1, "a", "b", "d", "e").
		Assign(2, "b", "c", "d", "e").
		Assign(3, "a", "b", "c", "e", "f").
		SetOwner("d", 2).
		SetOwner("b", 1)
	if err := c.Reconfigure(next); err != nil {
		t.Fatal(err)
	}
	quiesce()
	got.MigResp = capt.take(mcs.KindEpochMigResp)
	return got
}

// sortCounterSection returns a causalpart state-transfer payload with
// its max-merged counter section — (U32 header, U32 n, n × 12-byte
// (writer, VarID, count) records) — in sorted record order. The merge
// is order-insensitive, so only the multiset of records is pinned.
func sortCounterSection(t *testing.T, payloadHex string) string {
	t.Helper()
	b, err := hex.DecodeString(payloadHex)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 8 {
		t.Fatalf("causalpart frame too short: %d bytes", len(b))
	}
	n := int(binary.BigEndian.Uint32(b[4:8]))
	end := 8 + 12*n
	if end > len(b) {
		t.Fatalf("causalpart frame counter section overruns the payload (%d records, %d bytes)", n, len(b))
	}
	recs := make([][]byte, n)
	for k := range recs {
		recs[k] = b[8+12*k : 8+12*(k+1)]
	}
	sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i], recs[j]) < 0 })
	out := append([]byte(nil), b[:8]...)
	for _, r := range recs {
		out = append(out, r...)
	}
	return hex.EncodeToString(append(out, b[end:]...))
}

// TestStateCodecFramesGolden pins every protocol's rejoin and migration
// frames: payload bytes, control/data split and variable set.
func TestStateCodecFramesGolden(t *testing.T) {
	got := map[Consistency]codecFrames{}
	for _, cons := range Consistencies {
		got[cons] = stateCodecScenario(t, cons)
	}
	if *updateStateCodec {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stateCodecPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("re-recorded %s", stateCodecPath)
		return
	}
	raw, err := os.ReadFile(stateCodecPath)
	if err != nil {
		t.Fatalf("%v (run with -update-statecodec to record)", err)
	}
	var want map[Consistency]codecFrames
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, cons := range Consistencies {
		g, w := got[cons], want[cons]
		if cons == CausalPartial || cons == CausalHoopAware {
			for _, fs := range [][]codecFrame{g.SnapResp, g.MigResp, w.SnapResp, w.MigResp} {
				for k := range fs {
					fs[k].Payload = sortCounterSection(t, fs[k].Payload)
				}
			}
		}
		if !reflect.DeepEqual(g.SnapResp, w.SnapResp) {
			t.Errorf("%s: rejoin frames differ\n got %+v\nwant %+v", cons, g.SnapResp, w.SnapResp)
		}
		if !reflect.DeepEqual(g.MigResp, w.MigResp) {
			t.Errorf("%s: migration frames differ\n got %+v\nwant %+v", cons, g.MigResp, w.MigResp)
		}
	}
}
