package smc

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"pprl/internal/paillier"
)

// The querying party matches result frames to pairs by stream order and, in
// a packed run, ciphertexts to pairs by the frame they ride on. The fuzz
// target plays Bob from a script — honest frames built from the plaintexts,
// laid out by the test's own statement of the frame plan — damages one
// frame's echo, ciphertext count or ciphertext position, and holds the
// session to its contract: an error, or the oracle's verdict for every
// pair; never a verdict taken from another pair's values.

var fuzzKey = sync.OnceValue(func() *paillier.PrivateKey {
	sk, err := paillier.GenerateKey(rand.Reader, testKeyBits)
	if err != nil {
		panic(err)
	}
	return sk
})

// scriptedFrames returns the result stream an honest Bob sends for pairs,
// cut into runs the way a session of the given window cuts them. The
// plaintext of a value is d² − T − 1, the sign the circuit's blind keeps.
func scriptedFrames(t *testing.T, pk *paillier.PublicKey, spec *Spec, pairs [][2]int, alice, bob [][]int64, window int) []*Message {
	t.Helper()
	rp, err := spec.resultPlan(pk.N.BitLen())
	if err != nil {
		t.Fatal(err)
	}
	pack := rp.pack
	active := spec.activeAttrs()
	var frames []*Message
	var held []*paillier.Ciphertext
	for lo := 0; lo < len(pairs); {
		n := 1
		for lo+n < len(pairs) && n < wantRunCap(window) && pairs[lo+n][0] == pairs[lo][0] {
			n++
		}
		for x, p := range pairs[lo : lo+n] {
			m := &Message{Kind: MsgResult, Record: p[1], Left: n - 1 - x}
			for _, ai := range active {
				d := alice[p[0]][ai] - bob[p[1]][ai]
				ct, err := pk.EncryptInt64(rand.Reader, d*d-spec.Attrs[ai].T-1)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, ct)
			}
			if wantCiphertexts(x, n, len(active), pack.Slots) > 0 {
				packed, err := pk.PackSigned(held, pack)
				if err != nil {
					t.Fatal(err)
				}
				for _, ct := range packed {
					m.Res = append(m.Res, ct.C)
				}
				held = held[:0]
			}
			frames = append(frames, m)
		}
		lo += n
	}
	return frames
}

func FuzzResultStream(f *testing.F) {
	f.Add(uint8(0), []byte{0x01, 0x82, 0x83, 0x14, 0x95}, uint16(1), uint8(0), int8(1))
	f.Add(uint8(0), []byte{0x01, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89}, uint16(3), uint8(3), int8(-1))
	f.Add(uint8(1), []byte{0x21, 0xa2, 0xa3}, uint16(2), uint8(2), int8(-1))
	f.Add(uint8(2), []byte{0x31, 0xb2, 0x43}, uint16(0), uint8(2), int8(2))
	f.Add(uint8(0), []byte{0x01, 0x81, 0x11, 0x91}, uint16(1), uint8(1), int8(-1))
	f.Add(uint8(0), []byte{0x05, 0x86, 0x87}, uint16(2), uint8(3), int8(0))
	// One run of maxRun pairs, damaged past position 8, where a 16-frame
	// window would cut it: an echo, and a packed ciphertext moved to the
	// run's next frame.
	f.Add(uint8(0), []byte{0x01, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x8b, 0x8c, 0x8d, 0x8e, 0x8f, 0x80}, uint16(11), uint8(0), int8(1))
	f.Add(uint8(0), []byte{0x01, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x8b, 0x8c, 0x8d, 0x8e, 0x8f, 0x80}, uint16(9), uint8(3), int8(1))

	f.Fuzz(func(t *testing.T, geometry uint8, list []byte, frame uint16, field uint8, delta int8) {
		if len(list) == 0 {
			return
		}
		// Two pairs per ciphertext, one, and three ciphertexts per pair.
		spec := [](*Spec){planSpec(2, 7), planSpec(2, DefaultValueBits), planSpec(5, DefaultValueBits)}[geometry%3]
		d := len(spec.Attrs)
		// Neighbouring records differ in verdict against most partners, so a
		// stream shifted by one pair shows.
		alice, bob := make([][]int64, 8), make([][]int64, 16)
		for i := range alice {
			alice[i] = make([]int64, d)
			alice[i][1%d] = int64(i)
		}
		for j := range bob {
			bob[j] = make([]int64, d)
			bob[j][1%d] = int64(j%8 + j/8*5)
			bob[j][0] = int64(j % 3 / 2)
		}
		// A byte is a pair: the high bit keeps Alice's record of the pair
		// before (a run), otherwise bits 4–6 name it; the low four are Bob's.
		// Nobody reads the query's requests and the whole result stream is
		// queued before the call, so whatever the window (the default, 32,
		// here) each link holds at most the key or the shutdown and one
		// frame a pair: 49 of its 64 frames, and nothing here blocks.
		list = list[:min(len(list), 48)]
		pairs := make([][2]int, len(list))
		for k, b := range list {
			pairs[k] = [2]int{int(b>>4) % 8, int(b & 15)}
			if b&0x80 != 0 && k > 0 {
				pairs[k][0] = pairs[k-1][0]
			}
		}

		sk := fuzzKey()
		qa, _ := NewConnPair()
		qb, bq := NewConnPair()
		q, err := newQuerySessionWithKey(qa, qb, spec, sk)
		if err != nil {
			t.Fatal(err)
		}
		frames := scriptedFrames(t, sk.Public(), spec, pairs, alice, bob, q.window)
		at := int(frame) % len(frames)
		m := frames[at]
		switch field % 4 {
		case 0:
			m.Record += int(delta)
		case 1:
			m.Left += int(delta)
		case 2: // the ciphertext count: cut from the end, or padded
			if n := len(m.Res) + int(delta); n < len(m.Res) {
				m.Res = m.Res[:max(n, 0)]
			} else {
				for len(m.Res) < n {
					m.Res = append(m.Res, big.NewInt(5))
				}
			}
		case 3: // the ciphertexts' place in the stream: they ride on another frame
			if to := at + int(delta); to >= 0 && to < len(frames) && to != at {
				frames[to].Res = append(frames[to].Res, m.Res...)
				m.Res = nil
			}
		}
		for _, m := range frames {
			if err := bq.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		// Whatever the session still waits for after the script, it gets a
		// frame that is no result, not a silence.
		if err := bq.Send(&Message{Kind: MsgShutdown}); err != nil {
			t.Fatal(err)
		}

		got, err := q.CompareBatch(pairs)
		if err != nil {
			if delta == 0 {
				t.Fatalf("an undamaged stream was refused: %v", err)
			}
			return
		}
		for k, p := range pairs {
			if want := spec.Matches(alice[p[0]], bob[p[1]]); got[k] != want {
				t.Fatalf("geometry %d, frame %d field %d delta %d: pair %d %v got verdict %v, the oracle says %v, and no error",
					geometry%3, at, field%4, delta, k, p, got[k], want)
			}
		}
		if q.Invocations() != int64(len(pairs)) {
			t.Fatalf("%d invocations for %d verdicts", q.Invocations(), len(pairs))
		}
	})
}
