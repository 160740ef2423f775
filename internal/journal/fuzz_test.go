package journal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to the replay parser: it must
// never panic, and whatever it accepts must satisfy the format's
// invariants — current version, a manifest before any verdict, and no
// verdicts from a file whose manifest never made it to disk. The seed
// corpus covers a valid journal and truncations/mutations of it, so the
// fuzzer starts at the interesting boundaries (torn frames, flipped CRC
// bytes) instead of random noise.
func FuzzJournalReplay(f *testing.F) {
	var m Manifest
	m.ConfigDigest[0] = 1
	m.InputsDigest[0] = 2
	m.TotalPairs, m.UnknownPairs, m.Allowance, m.Seed = 100, 10, 5, 3
	m.Heuristic = "minFirst"
	valid := buildImage(m, []Verdict{{I: 1, J: 2, Matched: true}, {I: 3, J: 4}})

	f.Add(valid)
	f.Add(valid[:len(valid)-1])              // torn final verdict
	f.Add(valid[:headerLen])                 // header only
	f.Add(valid[:headerLen+5])               // torn manifest
	f.Add([]byte{})                          // empty
	f.Add([]byte("PPRLWAL\x00\x02\x00"))     // newer version
	f.Add(bytes.Repeat([]byte{0xff}, 64))    // noise
	corrupt := append([]byte(nil), valid...) // CRC-breaking flip
	corrupt[len(corrupt)-3] ^= 0x80
	f.Add(corrupt)
	// One multi-frame window (batch marks, verdicts, a commit) cut where
	// its single write can tear: mid-frame and on either side of a frame
	// boundary.
	window := refImage(m, windowEvents())
	const last = 4 + verdictPayloadLen + 4 // the window's final frame
	for _, cut := range []int{len(window) - 1, len(window) - last + 1, len(window) - last, len(window) - last - 1, len(window) / 2} {
		f.Add(window[:cut])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := parse(data)
		if err != nil {
			if rec != nil {
				t.Fatalf("error %v returned alongside recovered state", err)
			}
			return
		}
		// Accepted input: the invariants the engines rely on must hold.
		if binary.LittleEndian.Uint16(data[8:10]) != formatVersion {
			t.Fatalf("accepted a journal of version %d", binary.LittleEndian.Uint16(data[8:10]))
		}
		if rec.goodOffset+rec.TornBytes != int64(len(data)) {
			t.Fatalf("offset accounting: good %d + torn %d != size %d", rec.goodOffset, rec.TornBytes, len(data))
		}
		if rec.TornBytes < 0 || rec.goodOffset < headerLen {
			t.Fatalf("impossible offsets: good %d, torn %d", rec.goodOffset, rec.TornBytes)
		}
	})
}

// buildImage assembles a journal byte image in memory: header, manifest
// and one frame per verdict, through the tests' reference framing.
func buildImage(m Manifest, verdicts []Verdict) []byte {
	var out []byte
	var hdr [headerLen]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint16(hdr[8:10], formatVersion)
	out = append(out, hdr[:]...)
	out = refFrame(out, encodeManifest(m))
	for _, v := range verdicts {
		out = refFrame(out, event{kind: recVerdict, v: v}.payload())
	}
	return out
}
