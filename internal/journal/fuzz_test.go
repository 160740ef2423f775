package journal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to the replay parser: it must
// never panic, and whatever it accepts must satisfy the format's
// invariants — a version this build reads, a manifest before any verdict,
// no verdicts from a file whose manifest never made it to disk, and a
// batch frame's verdicts among the flat lists'. The seed corpus covers
// valid v3, v2 and v1 journals and truncations/mutations of them, so the
// fuzzer starts at the interesting boundaries (torn frames, flipped CRC
// bytes, span counts and bitmaps) instead of random noise.
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
	f.Add([]byte("PPRLWAL\x00\x04\x00"))     // newer version
	f.Add(bytes.Repeat([]byte{0xff}, 64))    // noise
	corrupt := append([]byte(nil), valid...) // CRC-breaking flip
	corrupt[len(corrupt)-3] ^= 0x80
	f.Add(corrupt)
	// One multi-frame window (batch marks, lone verdicts, spans, a commit)
	// cut where its single write can tear: mid-frame and on either side of
	// a frame boundary.
	window := refImage(m, windowEvents(), 1<<20)
	frames := refFrames(windowEvents(), 1<<20)
	last := len(frames[len(frames)-1].bytes) // the window's final frame, a span
	for _, cut := range []int{len(window) - 1, len(window) - last + 1, len(window) - last, len(window) - last - 1, len(window) / 2} {
		f.Add(window[:cut])
	}
	// The v1 image of the first run, and v1 and v2 headers over span
	// records (refused: v1 has no span type, v2 no column span).
	v1 := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(v1[8:10], 1)
	f.Add(v1)
	for _, version := range []uint16{1, 2} {
		old := append([]byte(nil), window...)
		binary.LittleEndian.PutUint16(old[8:10], version)
		f.Add(old)
	}
	// A span whose count, length and bitmap disagree, with its CRC fixed up.
	span := refFrame(append([]byte(nil), valid...), spanPayload(recVerdict, []Verdict{{I: 5, J: 1}, {I: 5, J: 2, Matched: true}, {I: 5, J: 3}}))
	f.Add(span)
	bad := append([]byte(nil), span[:len(span)-4]...)
	bad[len(bad)-1] |= 0x80 // a verdict bit past the third
	f.Add(binary.LittleEndian.AppendUint32(bad, crc32.Checksum(bad[len(valid)+4:], crcTable)))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := parse(data)
		if err != nil {
			if rec != nil {
				t.Fatalf("error %v returned alongside recovered state", err)
			}
			return
		}
		// Accepted input: the invariants the engines rely on must hold.
		if v := binary.LittleEndian.Uint16(data[8:10]); v < 1 || v > formatVersion {
			t.Fatalf("accepted a journal of version %d", v)
		}
		if rec.goodOffset+rec.TornBytes != int64(len(data)) {
			t.Fatalf("offset accounting: good %d + torn %d != size %d", rec.goodOffset, rec.TornBytes, len(data))
		}
		if rec.TornBytes < 0 || rec.goodOffset < headerLen {
			t.Fatalf("impossible offsets: good %d, torn %d", rec.goodOffset, rec.TornBytes)
		}
		var inBatches, tierInBatches int
		for _, b := range rec.Batches {
			inBatches += len(b.Verdicts)
			tierInBatches += len(b.TierVerdicts)
		}
		if inBatches > len(rec.Verdicts) || tierInBatches > len(rec.TierVerdicts) {
			t.Fatalf("batch frames hold %d/%d verdicts, the flat lists %d/%d",
				inBatches, tierInBatches, len(rec.Verdicts), len(rec.TierVerdicts))
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
