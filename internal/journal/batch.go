package journal

import (
	"encoding/binary"
	"fmt"
)

// Incremental checkpoint records. An incremental run's journal interleaves
// the verdict stream with batch frames: a recBatch mark opens one append
// batch (identifying which side grew, by how much, and the digest of the
// appended records), the batch's purchased and tier verdicts follow, and a
// recBatchCommit seals it. The commit is the delta-exposure barrier — an
// engine only releases a batch's Match deltas after the commit record is
// durable, so a crash anywhere before it re-processes the batch (replaying
// the journaled verdict prefix at zero allowance cost) and a crash after
// it replays the batch wholesale without re-emitting a single delta. The
// commit is also the frame's only fsync: the windows between mark and
// commit are written at the SyncEvery cadence but not fsynced, so a
// power loss inside the frame loses at most the batch — never a delta
// already exposed.
// Batch records arrived within format v1, without a version bump: a
// frozen-run journal simply contains none.
const (
	recBatch       byte = 4
	recBatchCommit byte = 5
)

const (
	batchMarkPayloadLen   = 1 + 4 + 1 + 4 + 32 // type, batch, side, records, digest
	batchCommitPayloadLen = 1 + 4 + 4 + 8      // type, batch, deltas, spent
)

// BatchMark opens one append batch's verdict frame.
type BatchMark struct {
	// Batch is the 0-based global batch index; marks must appear densely
	// in order, which replay enforces.
	Batch uint32
	// Side is the holder that grew: 0 = alice, 1 = bob (dedup runs always
	// write 0).
	Side uint8
	// Records is how many records the batch appended.
	Records uint32
	// Digest is the watermark: a hash of the appended records, so resume
	// can refuse to replay verdicts against a batch file that changed.
	Digest [32]byte
}

// BatchCommit seals a batch: its deltas may now be released.
type BatchCommit struct {
	Batch uint32
	// Deltas is how many new Match pairs the batch emitted.
	Deltas uint32
	// Spent is the allowance the batch consumed (unit purchases plus any
	// DP dummy share), excluding replayed verdicts.
	Spent int64
}

// BatchSink is the journal interface incremental runs record through:
// the frozen-run Sink plus the batch frame records.
type BatchSink interface {
	Sink
	RecordBatch(m BatchMark) error
	RecordBatchCommit(c BatchCommit) error
}

// RecordBatch implements BatchSink: appends a batch mark opening a new
// verdict frame.
func (w *Writer) RecordBatch(m BatchMark) error {
	if err := w.ready("RecordBatch"); err != nil {
		return err
	}
	var payload [batchMarkPayloadLen]byte
	payload[0] = recBatch
	binary.LittleEndian.PutUint32(payload[1:5], m.Batch)
	payload[5] = m.Side
	binary.LittleEndian.PutUint32(payload[6:10], m.Records)
	copy(payload[10:42], m.Digest[:])
	w.appendFrame(payload[:])
	w.inFrame = true
	return w.appended()
}

// RecordBatchCommit implements BatchSink: appends the commit record and
// fsyncs the frame. The fsync is the point of the record — a batch's
// deltas are only exposed once the commit is durable, so this call
// returning nil is the engine's license to release them.
func (w *Writer) RecordBatchCommit(c BatchCommit) error {
	if err := w.ready("RecordBatchCommit"); err != nil {
		return err
	}
	var payload [batchCommitPayloadLen]byte
	payload[0] = recBatchCommit
	binary.LittleEndian.PutUint32(payload[1:5], c.Batch)
	binary.LittleEndian.PutUint32(payload[5:9], c.Deltas)
	binary.LittleEndian.PutUint64(payload[9:17], uint64(c.Spent))
	w.appendFrame(payload[:])
	w.inFrame = false
	return w.fsync()
}

// Recovered exposes the state replayed when the writer was opened with
// Resume (nil for a fresh journal). Incremental engines read the batch
// frames from it; the frozen-run engines keep using Begin's verdict list.
func (w *Writer) Recovered() *Recovered { return w.recovered }

// BatchFrame is one replayed append batch: its mark, the verdicts
// journaled inside it, and whether its commit record made it to disk.
type BatchFrame struct {
	Mark BatchMark
	// Verdicts and TierVerdicts are the batch's journaled resolutions, in
	// resolution order.
	Verdicts     []Verdict
	TierVerdicts []Verdict
	// Committed reports whether the batch's commit record is on disk; at
	// most the last frame of a journal is uncommitted.
	Committed bool
	Commit    BatchCommit
}

func decodeBatchMark(payload []byte) (BatchMark, error) {
	var m BatchMark
	if len(payload) != batchMarkPayloadLen {
		return m, fmt.Errorf("journal: batch record has %d payload bytes, want %d", len(payload), batchMarkPayloadLen)
	}
	m.Batch = binary.LittleEndian.Uint32(payload[1:5])
	m.Side = payload[5]
	m.Records = binary.LittleEndian.Uint32(payload[6:10])
	copy(m.Digest[:], payload[10:42])
	return m, nil
}

func decodeBatchCommit(payload []byte) (BatchCommit, error) {
	var c BatchCommit
	if len(payload) != batchCommitPayloadLen {
		return c, fmt.Errorf("journal: batch commit record has %d payload bytes, want %d", len(payload), batchCommitPayloadLen)
	}
	c.Batch = binary.LittleEndian.Uint32(payload[1:5])
	c.Deltas = binary.LittleEndian.Uint32(payload[5:9])
	c.Spent = int64(binary.LittleEndian.Uint64(payload[9:17]))
	return c, nil
}
