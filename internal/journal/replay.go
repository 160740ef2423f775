package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Recovered is the durable state replayed from a journal: the run
// manifest and every intact verdict, in the order they were resolved.
type Recovered struct {
	Manifest Manifest
	// Verdicts holds the purchased SMC resolutions — the ones a resumed
	// run replays instead of re-spending allowance on.
	Verdicts []Verdict
	// TierVerdicts holds the tier-labeled resolutions. A resumed frozen
	// run ignores them (tier labels are deterministic and recomputed
	// fresh, possibly under a different threshold); they let auditors
	// distinguish heuristic labels from exact purchased verdicts, and a
	// live dataset replays a committed batch from its frame's copy
	// (BatchFrame.TierVerdicts). Journals written while the tier still had
	// a Match band hold Matched records here; today's writers record
	// NonMatch only.
	TierVerdicts []Verdict
	// Batches holds the incremental batch frames, in append order; empty
	// for frozen-run journals. Verdicts recorded inside a batch frame
	// appear both here and in the flat Verdicts/TierVerdicts lists, so
	// frozen-run resume accounting is unchanged by the record type's
	// existence.
	Batches []BatchFrame
	// TornBytes is how much of the file's tail was cut short mid-write
	// (a crash between write and the record's completion) and therefore
	// discarded; 0 for a cleanly closed journal.
	TornBytes int64

	// goodOffset is the file offset just past the last intact record,
	// where Resume truncates and appends.
	goodOffset int64
}

// Replay reads a journal without modifying it. Structural faults before
// the manifest — wrong magic, a newer format version, a manifest record
// that never made it to disk intact — are errors: there is nothing safe
// to resume. A torn tail after the manifest is not an error; the intact
// prefix is returned and TornBytes reports what was dropped. Every span
// record is expanded into its verdicts, so the v1, v2 and v3 files of one
// run replay to the same lists.
func Replay(path string) (*Recovered, error) {
	rec, _, err := replay(path)
	return rec, err
}

// replay is Replay that also reports the file's format version.
func replay(path string) (*Recovered, uint16, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	rec, err := parse(data)
	if err != nil {
		return nil, 0, err
	}
	return rec, binary.LittleEndian.Uint16(data[8:10]), nil
}

// parse decodes a journal image. Framing faults (short frame, oversized
// length, CRC mismatch) end the replay at the last intact record — in an
// append-only file everything past the first bad frame was written after
// it and is equally suspect. Faults inside a CRC-valid payload, by
// contrast, are hard errors: those bytes are exactly what the writer
// stored, so the file is not a journal this version understands.
func parse(data []byte) (*Recovered, error) {
	if len(data) < headerLen {
		// A crash can cut the header itself short. Only a byte-wise
		// prefix of our own header is recognized as that torn write;
		// anything else short is foreign data, not a journal to discard.
		n := len(data)
		if n > len(magic) {
			n = len(magic)
		}
		if bytes.Equal(data[:n], magic[:n]) {
			return nil, fmt.Errorf("%w: file too short for a journal header (%d bytes)", ErrNoManifest, len(data))
		}
		return nil, fmt.Errorf("journal: file too short for a journal header (%d bytes) and not a torn pprl journal", len(data))
	}
	if [8]byte(data[:8]) != magic {
		return nil, fmt.Errorf("journal: bad magic: not a pprl run journal")
	}
	version := binary.LittleEndian.Uint16(data[8:10])
	if version > formatVersion {
		return nil, fmt.Errorf("%w: file is v%d, this build reads v1–v%d", ErrNewerVersion, version, formatVersion)
	}
	if version == 0 {
		return nil, fmt.Errorf("journal: unsupported format version %d", version)
	}
	rec := &Recovered{goodOffset: headerLen}
	sawManifest := false
	// open is the uncommitted batch frame verdicts currently attach to;
	// -1 outside any frame (frozen-run journals stay there forever).
	open := -1
	off := int64(headerLen)
	total := int64(len(data))
	for off < total {
		payload, next, ok := nextFrame(data, off)
		if !ok {
			break // torn tail; truncate here
		}
		switch payload[0] {
		case recManifest:
			if sawManifest {
				return nil, fmt.Errorf("journal: duplicate manifest record at offset %d", off)
			}
			m, err := decodeManifest(payload)
			if err != nil {
				return nil, err
			}
			rec.Manifest = m
			sawManifest = true
		case recSpan, recTierSpan, recColSpan, recTierColSpan:
			since := uint16(2) // row spans; column spans arrived in v3
			if payload[0] == recColSpan || payload[0] == recTierColSpan {
				since = 3
			}
			if version < since {
				return nil, fmt.Errorf("journal: span record type %d at offset %d in a v%d journal", payload[0], off, version)
			}
			fallthrough
		case recVerdict, recTierVerdict:
			if !sawManifest {
				return nil, fmt.Errorf("journal: verdict record before the manifest at offset %d", off)
			}
			tier := payload[0] == recTierVerdict || payload[0] == recTierSpan || payload[0] == recTierColSpan
			flat := &rec.Verdicts
			if tier {
				flat = &rec.TierVerdicts
			}
			from := len(*flat)
			var err error
			if *flat, err = appendVerdicts(*flat, payload); err != nil {
				return nil, err
			}
			if open >= 0 {
				b := &rec.Batches[open]
				if tier {
					b.TierVerdicts = append(b.TierVerdicts, (*flat)[from:]...)
				} else {
					b.Verdicts = append(b.Verdicts, (*flat)[from:]...)
				}
			}
		case recBatch:
			if !sawManifest {
				return nil, fmt.Errorf("journal: batch record before the manifest at offset %d", off)
			}
			if open >= 0 {
				return nil, fmt.Errorf("journal: batch %d opened at offset %d while batch %d is uncommitted", len(rec.Batches), off, rec.Batches[open].Mark.Batch)
			}
			m, err := decodeBatchMark(payload)
			if err != nil {
				return nil, err
			}
			if int(m.Batch) != len(rec.Batches) {
				return nil, fmt.Errorf("journal: batch mark %d at offset %d, want %d (marks must be dense and ordered)", m.Batch, off, len(rec.Batches))
			}
			rec.Batches = append(rec.Batches, BatchFrame{Mark: m})
			open = len(rec.Batches) - 1
		case recBatchCommit:
			c, err := decodeBatchCommit(payload)
			if err != nil {
				return nil, err
			}
			if open < 0 {
				return nil, fmt.Errorf("journal: batch commit %d at offset %d without an open batch", c.Batch, off)
			}
			if c.Batch != rec.Batches[open].Mark.Batch {
				return nil, fmt.Errorf("journal: batch commit %d at offset %d closes open batch %d", c.Batch, off, rec.Batches[open].Mark.Batch)
			}
			rec.Batches[open].Committed = true
			rec.Batches[open].Commit = c
			open = -1
		default:
			return nil, fmt.Errorf("journal: unknown record type %d at offset %d", payload[0], off)
		}
		off = next
		rec.goodOffset = next
	}
	rec.TornBytes = total - rec.goodOffset
	if !sawManifest {
		return nil, fmt.Errorf("%w (journal torn %d bytes in); nothing to resume", ErrNoManifest, rec.goodOffset)
	}
	return rec, nil
}

// nextFrame decodes the frame starting at off. ok is false when the
// frame is torn: cut short, implausibly long, or failing its checksum.
func nextFrame(data []byte, off int64) (payload []byte, next int64, ok bool) {
	if off+4 > int64(len(data)) {
		return nil, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	if n == 0 || n > maxPayload {
		return nil, 0, false
	}
	end := off + 4 + n + 4
	if end > int64(len(data)) {
		return nil, 0, false
	}
	payload = data[off+4 : off+4+n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+4+n:end]) {
		return nil, 0, false
	}
	return payload, end, true
}

// appendVerdicts appends the verdicts of a CRC-valid verdict or span
// payload to out:
//
//	verdict := type | i u32 | j u32 | matched u8
//	span    := type | i u32 | n u16 | j u32 × n | bitmap ⌈n/8⌉ bytes
//	column  := type | j u32 | n u16 | i u32 × n | bitmap ⌈n/8⌉ bytes
//
// Bit x of the bitmap (byte x/8, least significant bit first) is the
// verdict on the x-th pair; the bits past n are zero.
func appendVerdicts(out []Verdict, payload []byte) ([]Verdict, error) {
	le := binary.LittleEndian
	if payload[0] == recVerdict || payload[0] == recTierVerdict {
		if len(payload) != verdictPayloadLen {
			return nil, fmt.Errorf("journal: verdict record has %d payload bytes, want %d", len(payload), verdictPayloadLen)
		}
		return append(out, Verdict{I: le.Uint32(payload[1:5]), J: le.Uint32(payload[5:9]), Matched: payload[9] != 0}), nil
	}
	if len(payload) < spanHeaderLen {
		return nil, fmt.Errorf("journal: span record has %d payload bytes, want ≥ %d", len(payload), spanHeaderLen)
	}
	fixed, n := le.Uint32(payload[1:5]), int(le.Uint16(payload[5:7]))
	column := payload[0] == recColSpan || payload[0] == recTierColSpan
	if n == 0 || len(payload) != spanPayloadLen(n) {
		return nil, fmt.Errorf("journal: span record of %d verdicts has %d payload bytes, want %d", n, len(payload), spanPayloadLen(n))
	}
	others, bits := payload[spanHeaderLen:spanHeaderLen+4*n], payload[spanHeaderLen+4*n:]
	if bits[len(bits)-1]>>((n-1)%8+1) != 0 {
		return nil, fmt.Errorf("journal: span record of %d verdicts sets bits past its last verdict", n)
	}
	for x := 0; x < n; x++ {
		v := Verdict{I: fixed, J: le.Uint32(others[4*x:]), Matched: bits[x/8]>>(x%8)&1 != 0}
		if column {
			v.I, v.J = v.J, v.I
		}
		out = append(out, v)
	}
	return out, nil
}

// decodeManifest parses a CRC-valid manifest payload.
func decodeManifest(payload []byte) (Manifest, error) {
	const fixed = 1 + 32 + 32 + 8*4 + 2
	var m Manifest
	if len(payload) < fixed {
		return m, fmt.Errorf("journal: manifest record has %d payload bytes, want ≥ %d", len(payload), fixed)
	}
	p := payload[1:]
	copy(m.ConfigDigest[:], p[:32])
	copy(m.InputsDigest[:], p[32:64])
	m.TotalPairs = int64(binary.LittleEndian.Uint64(p[64:72]))
	m.UnknownPairs = int64(binary.LittleEndian.Uint64(p[72:80]))
	m.Allowance = int64(binary.LittleEndian.Uint64(p[80:88]))
	m.Seed = int64(binary.LittleEndian.Uint64(p[88:96]))
	nameLen := int(binary.LittleEndian.Uint16(p[96:98]))
	if len(p) != 98+nameLen {
		return m, fmt.Errorf("journal: manifest heuristic name: %d bytes declared, %d present", nameLen, len(p)-98)
	}
	m.Heuristic = string(p[98 : 98+nameLen])
	return m, nil
}
