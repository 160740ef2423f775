package smc

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pprl/internal/wire"
)

// frameLayouts is PROTOCOL.md's message table as the codec's test table:
// one row per kind, its fields in declared order as the table's "Fields"
// column writes them, a message that sets every field any sender sets,
// and that message's frame.
var frameLayouts = []struct {
	kind   string
	fields string
	m      *Message
	frame  string
}{
	{"MsgPublicKey", "`N` big",
		&Message{Kind: MsgPublicKey, N: big.NewInt(0xc35)},
		"040300040c35"},
	{"MsgCompare", "`Record` int, `Records` []int",
		&Message{Kind: MsgCompare, Record: 3, Records: []int{4, 5, 70}},
		"0703010603080a8c01"},
	{"MsgShares", "`Sq` []big, `Lin` []big",
		&Message{Kind: MsgShares, Sq: []*big.Int{big.NewInt(1), big.NewInt(0x101)}, Lin: []*big.Int{big.NewInt(2), big.NewInt(3)}},
		"0c03020202010401010202020203"},
	{"MsgResult", "`Record` int, `Left` int, `Res` []big",
		&Message{Kind: MsgResult, Record: 4, Left: 2, Res: []*big.Int{big.NewInt(0x201)}},
		"070303080401040201"},
	{"MsgShutdown", "—",
		&Message{Kind: MsgShutdown},
		"010304"},
	{"MsgHello", "`Role` string",
		&Message{Kind: MsgHello, Role: "alice"},
		"07030505616c696365"},
	{"MsgParams", "`QIDs` []string, `Spec` opt Spec",
		&Message{Kind: MsgParams, QIDs: []string{"age", "sex"},
			Spec: &Spec{Attrs: []AttrSpec{{Mode: ModeEquality}, {Mode: ModeThreshold, T: 9}}, Scale: 10, ValueBits: 7}},
		"13030602036167650373657801020200001214000e"},
	{"MsgView", "`View` bytes",
		&Message{Kind: MsgView, View: []byte("pprl-view\t1\n")},
		"0e03070c7070726c2d7669657709310a"},
}

// TestFrameLayout holds each kind to its golden frame, to a round trip of
// every field, and to its row of PROTOCOL.md's message table, so a field
// the codec drops, reorders or re-encodes fails here and the document
// cannot drift from the code.
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
			var got Message
			if err := wire.Unmarshal(frame, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&got, tc.m) {
				t.Errorf("round trip gave %+v, want %+v", &got, tc.m)
			}
			if row := tableRow(doc, tc.kind, int(tc.m.Kind)); !strings.Contains(row, "| "+tc.fields+" |") {
				t.Errorf("PROTOCOL.md's row %q does not give the fields as %q", row, tc.fields)
			}
		})
	}
}

// tableRow returns the line of PROTOCOL.md's table for kind, whose first
// two cells are its name and its kind byte.
func tableRow(doc []byte, kind string, b int) string {
	prefix := fmt.Sprintf("| `%s` | %d |", kind, b)
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// Frames of the tier the session once had: version 1's MsgParams with the
// tier's shape on, version 2's with its tier bool on, and version 2's
// MsgEncodings (kind 8), a holder's CLKs.
var (
	version1Params, _    = hex.DecodeString("18010602036167650373657801020200001214000e01d00f3c04")
	version2Params, _    = hex.DecodeString("14020602036167650373657801020200001214000e01")
	version2Encodings, _ = hex.DecodeString("0702080202010201ff")
)

// TestLinkRefusesHostileFrames: a TCP-style link refuses each hostile frame
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
		{"foreign version", append(header(1, wire.Version+1), byte(MsgShutdown)), wire.ErrVersion},
		// Version 1's MsgParams, whose tier carried a CLK shape (M 1000,
		// K 30, Q 2) for the holder to encode at.
		{"version-1 params with a tier shape", version1Params, wire.ErrVersion},
		// Version 2's, whose bool asked the holders for CLKs, and the
		// CLKs themselves: refused by the version byte, body unread.
		{"version-2 params with the tier on", version2Params, wire.ErrVersion},
		{"version-2 encodings", version2Encodings, wire.ErrVersion},
		// Kind 8 at this version is no kind at all.
		{"encodings kind at this version", append(header(7, wire.Version), 8, 2, 2, 1, 2, 1, 0xff), wire.ErrMalformed},
		{"unknown kind", append(header(1, wire.Version), 200), wire.ErrMalformed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peer, end := net.Pipe()
			c := NewNetConn(end)
			defer c.Close()
			go func() {
				peer.Write(tc.bytes)
				peer.Close()
			}()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := c.Recv()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, tc.want) {
				t.Errorf("Recv = %+v, %v; want %v", m, err, tc.want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 128<<10 {
				t.Errorf("refusing it allocated %d bytes", alloc)
			}
		})
	}

	peer, end := net.Pipe()
	defer peer.Close()
	c := NewNetConn(end)
	defer c.Close()
	huge := make([]byte, wire.MaxBody+1) // never touched: the cap is checked first
	if err := c.Send(&Message{Kind: MsgView, View: huge}); !errors.Is(err, wire.ErrTooLarge) {
		t.Errorf("over-cap Send: %v, want ErrTooLarge", err)
	}
	if c.Bytes() != 0 {
		t.Errorf("over-cap Send wrote %d bytes", c.Bytes())
	}
}

// FuzzFrame: no byte string panics the decoder, and one that decodes is
// the canonical frame of what it decodes to. The seeds are every kind's
// golden frame and the older versions' tier frames.
func FuzzFrame(f *testing.F) {
	for _, tc := range frameLayouts {
		frame, err := wire.Marshal(tc.m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, frame := range [][]byte{version1Params, version2Params, version2Encodings} {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		var m Message
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
