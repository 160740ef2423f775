package distrib

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pprl/internal/smc"
	"pprl/internal/wire"
)

// frameLayouts is PROTOCOL.md's fleet message table as the codec's test
// table: one row per kind, its fields in declared order as the table's
// "Fields" column writes them, a message that sets every field any sender
// sets, and that message's frame.
var frameLayouts = []struct {
	kind   string
	fields string
	m      *message
	frame  string
}{
	{"kindRegister", "`Name` string, `Lanes` int",
		&message{Kind: kindRegister, Name: "w1", Lanes: 2},
		"05030102773104"},
	{"kindWelcome", "`Name` string",
		&message{Kind: kindWelcome, Name: "w1-3"},
		"0603020477312d33"},
	{"kindSetup", "`Job` string, `Engine` int, `KeyBits` int, `Spec` opt Spec, `Lanes` int",
		&message{Kind: kindSetup, Job: "j", Engine: EngineSecure, KeyBits: 1024, Spec: testSpec(), Lanes: 2},
		"100303016a02801001020200001202000004"},
	{"kindRecords", "`Holder` int, `Base` int, `Rows` [][]int",
		&message{Kind: kindRecords, Holder: 1, Base: 2048, Rows: [][]int64{{3, -1}, {70, 0}}},
		"0c030402802002020601028c0100"},
	{"kindSetupDone", "`Job` string",
		&message{Kind: kindSetupDone, Job: "j"},
		"030305016a"},
	{"kindReady", "`Job` string",
		&message{Kind: kindReady, Job: "j"},
		"030306016a"},
	{"kindChunk", "`Job` string, `Chunk` int, `Pairs` [](int, int)",
		&message{Kind: kindChunk, Job: "j", Chunk: 5, Pairs: [][2]int{{0, 1}, {0, 2}}},
		"090307016a0a0200020004"},
	{"kindVerdicts", "`Job` string, `Chunk` int, `Verdicts` []bool, `Bytes` int, `ResultB` int, `Decs` int",
		&message{Kind: kindVerdicts, Job: "j", Chunk: 5, Verdicts: []bool{true, false}, Bytes: 1 << 20, ResultB: 512, Decs: 2},
		"0e0308016a0a02010080808001800804"},
	{"kindHeartbeat", "—",
		&message{Kind: kindHeartbeat},
		"010309"},
	{"kindTeardown", "`Job` string",
		&message{Kind: kindTeardown, Job: "j"},
		"03030a016a"},
	{"kindError", "`Job` string, `Chunk` int, `Err` string",
		&message{Kind: kindError, Job: "j", Chunk: 5, Err: "boom"},
		"09030b016a0a04626f6f6d"},
}

// TestFrameLayout holds each kind to its golden frame, to a round trip of
// every field, and to its row of PROTOCOL.md's fleet table, so a field the
// codec drops, reorders or re-encodes fails here and the document cannot
// drift from the code.
func TestFrameLayout(t *testing.T) {
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range frameLayouts {
		t.Run(tc.kind, func(t *testing.T) {
			frame, err := wire.Marshal(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(frame); got != tc.frame {
				t.Errorf("frame %s, want %s", got, tc.frame)
			}
			var got message
			if err := wire.Unmarshal(frame, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&got, tc.m) {
				t.Errorf("round trip gave %+v, want %+v", &got, tc.m)
			}
			prefix := fmt.Sprintf("| `%s` | %d |", tc.kind, tc.m.Kind)
			var row string
			for _, line := range strings.Split(string(doc), "\n") {
				if strings.HasPrefix(line, prefix) {
					row = line
				}
			}
			if !strings.Contains(row, "| "+tc.fields+" |") {
				t.Errorf("PROTOCOL.md's row %q does not give the fields as %q", row, tc.fields)
			}
		})
	}
}

// TestLinkRefusesHostileFrames: the fleet link refuses each hostile frame
// with its named error, allocating under 128 KiB — the header alone is read
// for an over-cap length or a foreign version, and a truncated body grows
// the read buffer one 64 KiB step — and refuses to send a frame over the
// cap before writing a byte of it.
func TestLinkRefusesHostileFrames(t *testing.T) {
	header := func(n int, version byte) []byte {
		return append(binary.AppendUvarint(nil, uint64(n)), version)
	}
	for _, tc := range []struct {
		name  string
		bytes []byte
		want  error
	}{
		{"one byte over the cap", header(wire.MaxBody+1, wire.Version), wire.ErrTooLarge},
		{"claims the cap, sends 10 bytes", append(header(wire.MaxBody, wire.Version), make([]byte, 10)...), io.ErrUnexpectedEOF},
		{"foreign version", append(header(1, wire.Version+1), byte(kindHeartbeat)), wire.ErrVersion},
		{"unknown kind", append(header(1, wire.Version), 200), wire.ErrMalformed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer, end := net.Pipe()
			l := wire.NewLink(end)
			defer l.Close()
			go func() {
				peer.Write(tc.bytes)
				peer.Close()
			}()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m := new(message)
			err := l.Recv(m)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, tc.want) {
				t.Errorf("recv = %+v, %v; want %v", m, err, tc.want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 128<<10 {
				t.Errorf("refusing it allocated %d bytes", alloc)
			}
		})
	}

	peer, end := net.Pipe()
	defer peer.Close()
	l := wire.NewLink(end)
	defer l.Close()
	end.SetWriteDeadline(time.Now().Add(time.Second)) // a write would block: nobody reads peer
	over := make([]bool, wire.MaxBody+1)              // never touched: the cap is checked first
	if err := l.Send(&message{Kind: kindVerdicts, Verdicts: over}); !errors.Is(err, wire.ErrTooLarge) {
		t.Errorf("over-cap send: %v, want ErrTooLarge", err)
	}
}

// TestWorkerRefusesHostileSetup plays a coordinator that ships a record
// chunk anywhere but at the end of the rows it has shipped — at a negative
// row, at one whose end overflows int, past a gap, or for a third holder.
// The worker answers each with an error frame and keeps serving: shipped
// in order, the same rows then build an engine that compares a chunk.
func TestWorkerRefusesHostileSetup(t *testing.T) {
	coord, work := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeWorker(work, WorkerOptions{Name: "w", HeartbeatEvery: time.Hour}) }()
	t.Cleanup(func() {
		coord.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("worker did not exit")
		}
	})
	l := wire.NewLink(coord)
	expect := func(kind msgKind) *message {
		t.Helper()
		m := new(message)
		if err := l.Recv(m); err != nil {
			t.Fatal(err)
		}
		if m.Kind != kind {
			t.Fatalf("got %+v, want kind %d", m, kind)
		}
		return m
	}
	send := func(m *message) {
		t.Helper()
		if err := l.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	expect(kindRegister)
	send(&message{Kind: kindWelcome, Name: "w"})
	send(&message{Kind: kindSetup, Job: "j", Engine: EngineOracle, Spec: testSpec()})
	alice, bob := testRecords(3, 1), testRecords(4, 2)
	for _, base := range []struct{ holder, base int }{{0, -1}, {0, math.MaxInt - 1}, {0, 1}, {2, 0}} {
		send(&message{Kind: kindRecords, Holder: base.holder, Base: base.base, Rows: alice})
		if m := expect(kindError); !strings.Contains(m.Err, "out of order") {
			t.Errorf("chunk at row %d of holder %d: error %q", base.base, base.holder, m.Err)
		}
	}
	send(&message{Kind: kindRecords, Holder: 0, Base: 0, Rows: alice[:2]})
	send(&message{Kind: kindRecords, Holder: 0, Base: 2, Rows: alice[2:]})
	send(&message{Kind: kindRecords, Holder: 1, Base: 0, Rows: bob})
	send(&message{Kind: kindSetupDone, Job: "j"})
	expect(kindReady)
	pairs := allPairs(len(alice), len(bob))
	send(&message{Kind: kindChunk, Job: "j", Pairs: pairs})
	want, err := smc.NewPlainComparator(testSpec(), alice, bob).CompareBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if got := expect(kindVerdicts).Verdicts; !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts %v, want %v", got, want)
	}
}

// FuzzFrame: no byte string panics the decoder, and one that decodes is
// the canonical frame of what it decodes to.
func FuzzFrame(f *testing.F) {
	for _, tc := range frameLayouts {
		frame, err := wire.Marshal(tc.m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var m message
		if wire.Unmarshal(frame, &m) != nil {
			return
		}
		again, err := wire.Marshal(&m)
		if err != nil {
			t.Fatalf("decoded %+v does not encode: %v", &m, err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("frame %x decodes to %+v, which encodes as %x", frame, &m, again)
		}
	})
}
