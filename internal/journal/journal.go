// Package journal implements a durable write-ahead journal for linkage
// runs, so the SMC budget — the dollar cost of the hybrid protocol — is
// never re-spent after a crash. A journal file starts with a manifest
// describing the run (digests of the configuration and the input
// relations, the blocking summary, the resolved allowance, the heuristic
// and its seed) followed by the SMC pair verdicts, appended in resolution
// order as the comparator returns them: one frame per span — the
// consecutive verdicts of one record i (a row span) or, failing that, of
// one record j (a column span) — and a lone verdict's frame for a span of
// one.
//
// The on-disk format is length-prefixed, CRC-checksummed and versioned
// (see DESIGN.md §8 for the byte layout). Appends are group-committed
// under the SyncEvery knob — a window of records is written and fsynced
// together — so a crash or a kill loses at most the un-synced tail, and
// those pairs are simply re-compared on resume. Inside an incremental
// batch frame a window is written but not fsynced: the frame's commit
// record is its one durability point, so a kill still loses at most a
// window and a power loss at most the open batch. Opening a journal for
// resumption truncates a torn tail (a record cut short mid-write) at the
// last intact record and refuses — with a descriptive error, never a
// silent fresh start — to continue a run whose configuration or inputs
// changed, or one written by a newer format version.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"os"
	"strconv"
	"sync"
)

// Format constants. The magic distinguishes journal files from arbitrary
// data; the version gates forward compatibility: a reader refuses files
// written by a newer version instead of guessing at their layout. Version
// 2 added the row span records, version 3 the column span records; an
// older file is read as before and becomes a v3 file when it is resumed
// (see Resume).
const (
	formatVersion = 3
	headerLen     = 10 // 8-byte magic + uint16 version
)

var magic = [8]byte{'P', 'P', 'R', 'L', 'W', 'A', 'L', 0}

// Record types inside the framed payloads. Purchased SMC verdicts
// (recVerdict, recSpan, recColSpan) and tier-labeled verdicts
// (recTierVerdict, recTierSpan, recTierColSpan) are distinct types on disk
// because resume accounting treats them differently: only purchased
// verdicts were paid for out of the allowance and must never be re-spent,
// while tier labels are deterministic and free to recompute — a resumed
// run replays the former and regenerates the latter. A row span record
// holds two or more consecutive verdicts of one record i (format v2), a
// column span record those of one record j that do not share i (format
// v3); a lone verdict keeps its v1 record.
const (
	recManifest    byte = 1
	recVerdict     byte = 2
	recTierVerdict byte = 3
	recSpan        byte = 6
	recTierSpan    byte = 7
	recColSpan     byte = 8
	recTierColSpan byte = 9
)

// maxPayload bounds a single record's payload so a corrupt length prefix
// cannot make the reader allocate gigabytes. The largest legitimate
// record is a span, which the writer closes once the sync window holding
// it reaches flushBytes (no larger than maxPayload); the manifest, whose
// only variable part is the heuristic name, stays far below it.
const maxPayload = 1 << 16

// A span's frame is part of the window it grows in, so a window bound
// above maxPayload could let one span's payload outgrow it.
const _ = uint(maxPayload - flushBytes)

// verdictPayloadLen is the fixed payload size of a verdict record:
// type byte, two uint32 record indexes, one verdict byte.
const verdictPayloadLen = 1 + 4 + 4 + 1

// spanHeaderLen is the fixed part of a span record's payload: type byte,
// the uint32 index of the span's record (i of a row span, j of a column
// span), the uint16 verdict count n. The n uint32 indexes of the other
// side and an n-bit verdict bitmap follow.
const spanHeaderLen = 1 + 4 + 2

// spanPayloadLen is the payload size of a span of n verdicts.
func spanPayloadLen(n int) int { return spanHeaderLen + 4*n + (n+7)/8 }

// crcTable is the Castagnoli polynomial, chosen over IEEE for its
// hardware support and better burst-error detection.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNewerVersion marks a journal written by a format version this build
// does not know how to read.
var ErrNewerVersion = errors.New("journal: written by a newer format version")

// ErrNoManifest marks a journal file whose manifest never became durable
// — the writer died between Create and the manifest fsync. Such a file
// holds no verdicts, so Open may safely recreate it; Resume still
// refuses it, since a caller asking to resume expected recorded state.
var ErrNoManifest = errors.New("journal: no intact manifest record")

// Manifest identifies the run a journal belongs to. Resumption replays
// verdicts only into a bit-identical run: the digests cover everything
// that influences which pairs are ordered for the SMC budget and what
// their verdicts are, so a mismatch means the journaled verdicts cannot
// be trusted to apply.
type Manifest struct {
	// ConfigDigest hashes the run parameters (QIDs, thresholds, anonymity
	// requirements, anonymizers, heuristic, strategy, allowance, scale,
	// seed). Computed by the layer that owns the configuration.
	ConfigDigest [32]byte
	// InputsDigest hashes the input relations (or, for a distributed
	// querying party, the published anonymized views).
	InputsDigest [32]byte
	// TotalPairs and UnknownPairs summarize the blocking step the journal
	// was recorded under.
	TotalPairs   int64
	UnknownPairs int64
	// Allowance is the resolved SMC budget in record pairs.
	Allowance int64
	// Seed drives the ordering of the TrainClassifier strategy's random
	// pair selection; zero elsewhere.
	Seed int64
	// Heuristic names the selection heuristic that ordered the pairs.
	Heuristic string
}

// HashField writes a length-delimited key/value into a manifest digest,
// so adjacent fields cannot alias ("ab"+"c" vs "a"+"bc"). Every layer
// that computes a ConfigDigest or InputsDigest builds it from these.
// The field is AppendField's, built in a pooled buffer and written once:
// what Write gets escapes.
func HashField(h hash.Hash, key, value string) {
	bp := fieldPool.Get().(*[]byte)
	b := AppendField((*bp)[:0], key, value)
	h.Write(b)
	*bp = b
	fieldPool.Put(bp)
}

// AppendField appends the bytes HashField hashes, "key=len:value;", to b,
// so a digest of many fields (a record's, core.HashRecord) can hash them
// in one Write.
func AppendField[V string | []byte](b []byte, key string, value V) []byte {
	b = append(append(b, key...), '=')
	b = append(strconv.AppendInt(b, int64(len(value)), 10), ':')
	return append(append(b, value...), ';')
}

var fieldPool = sync.Pool{New: func() any { return new([]byte) }}

// CheckCompatible reports whether a journal recorded under m can resume a
// run currently described by cur. Field-specific errors come first so the
// operator learns what changed; the digests catch everything else.
func (m Manifest) CheckCompatible(cur Manifest) error {
	switch {
	case m.Heuristic != cur.Heuristic:
		return fmt.Errorf("journal: heuristic changed: journal recorded %q, run uses %q", m.Heuristic, cur.Heuristic)
	case m.Allowance != cur.Allowance:
		return fmt.Errorf("journal: SMC allowance changed: journal recorded %d, run resolves %d", m.Allowance, cur.Allowance)
	case m.Seed != cur.Seed:
		return fmt.Errorf("journal: ordering seed changed: journal recorded %d, run uses %d", m.Seed, cur.Seed)
	case m.TotalPairs != cur.TotalPairs || m.UnknownPairs != cur.UnknownPairs:
		return fmt.Errorf("journal: blocking summary changed: journal recorded %d pairs (%d unknown), run has %d (%d unknown)",
			m.TotalPairs, m.UnknownPairs, cur.TotalPairs, cur.UnknownPairs)
	case m.ConfigDigest != cur.ConfigDigest:
		return fmt.Errorf("journal: config digest mismatch (journal %x…, run %x…): the run's parameters changed; refusing to resume",
			m.ConfigDigest[:6], cur.ConfigDigest[:6])
	case m.InputsDigest != cur.InputsDigest:
		return fmt.Errorf("journal: inputs digest mismatch (journal %x…, run %x…): the relations changed; refusing to resume",
			m.InputsDigest[:6], cur.InputsDigest[:6])
	}
	return nil
}

// Verdict is one journaled SMC resolution: Alice's record I matched (or
// did not match) Bob's record J.
type Verdict struct {
	I, J    uint32
	Matched bool
}

// Sink is what the linkage engines write runs through. Begin declares the
// run's manifest: a fresh journal persists it, a resumed journal instead
// validates it against the recovered manifest and returns the verdicts
// already purchased, which the engine applies without re-spending
// allowance. Record appends one purchased SMC pair and RecordTier one
// tier-labeled pair — the distinction is what keeps resume accounting
// exact. Sync writes all appended records regardless of the batching
// cadence and makes them durable — except inside a batch frame
// (BatchSink), whose records become durable with its commit record.
type Sink interface {
	Begin(m Manifest) ([]Verdict, error)
	Record(i, j int, matched bool) error
	RecordTier(i, j int, matched bool) error
	Sync() error
}

// Options tunes a journal writer.
type Options struct {
	// SyncEvery is how many verdict records may accumulate before they
	// are written and fsynced. 1 syncs every record (maximum durability,
	// slowest); larger values amortize the write and the fsync over a
	// window, risking at most that many re-comparisons after a kill. Inside
	// a batch frame the window is written but not fsynced — the commit
	// fsyncs the frame — so a power loss there re-buys at most that batch.
	// ≤ 0 selects the default (64).
	SyncEvery int
}

const defaultSyncEvery = 64

// flushBytes bounds the window buffer: a window that grows this large is
// written (not fsynced) early, so a huge SyncEvery cannot grow it.
const flushBytes = 64 << 10

// Writer appends a run to a journal file. It implements Sink. Writers are
// not safe for concurrent use; the engines call them from the linking
// goroutine only.
type Writer struct {
	f         *os.File
	path      string
	syncEvery int
	unsynced  int
	recorded  int
	began     bool
	// recovered is non-nil when the writer was opened with Resume: Begin
	// then validates instead of writing a second manifest.
	recovered *Recovered
	// buf holds the frames appended since the last flush — the current
	// sync window — which reach the file in one Write.
	buf []byte
	// The open span: the verdicts of consecutive Record (or RecordTier)
	// calls of kind spanKind (recVerdict or recTierVerdict, 0 when none is
	// open), spanBits their bitmap. The first one, (spanI, spanJ), waits;
	// the second decides the span's line — row spanI, or column spanJ
	// (spanCol) when it shares only j — and from it on the span's frame
	// grows unfinished at buf[spanAt:]: length prefix, header and the other
	// side's indexes so far.
	spanKind     byte
	spanI, spanJ uint32
	spanCol      bool
	spanAt       int
	spanN        int
	spanBits     []byte
	// inFrame is set between a batch mark — one this writer appended, or
	// the uncommitted tail frame Resume recovered — and its commit. The
	// cadence and Sync then write the window without fsyncing it: the
	// commit's fsync is the frame's one durability point.
	inFrame bool
	// fsyncs counts the file's fsyncs, for the package's tests.
	fsyncs int
	// err is the first write or fsync failure. It is sticky: the file may
	// end in a half-written window, which no good frame may follow.
	err error
}

// Create starts a fresh journal at path. It refuses to overwrite an
// existing file — an existing journal is a resumable run, and clobbering
// it would destroy exactly the verdicts this package exists to keep.
func Create(path string, opts Options) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("journal: %s already exists; resume it instead of starting over", path)
		}
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint16(hdr[8:10], formatVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: writing header: %w", err)
	}
	return &Writer{f: f, path: path, syncEvery: normalizeSyncEvery(opts.SyncEvery)}, nil
}

// Resume opens an interrupted run's journal for continuation: it replays
// the manifest and verdicts, truncates any torn tail at the last intact
// record, and positions the writer to append. The recovered verdicts are
// handed to the engine by Begin after manifest validation. A v1 or v2 file
// gets a v3 header, synced before anything else is written, because the
// writer appends span records of either line: a build that reads only an
// older version then refuses the file with ErrNewerVersion instead of
// meeting a record type it does not know.
func Resume(path string, opts Options) (*Writer, error) {
	rec, version, err := replay(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("journal: reopening for append: %w", err)
	}
	if rec.TornBytes > 0 {
		if err := f.Truncate(rec.goodOffset); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncating torn tail (%d bytes): %w", rec.TornBytes, err)
		}
	}
	if version < formatVersion {
		_, err := f.WriteAt(binary.LittleEndian.AppendUint16(nil, formatVersion), headerLen-2)
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: upgrading the v%d header: %w", version, err)
		}
	}
	if _, err := f.Seek(rec.goodOffset, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: seeking to append position: %w", err)
	}
	open := len(rec.Batches) > 0 && !rec.Batches[len(rec.Batches)-1].Committed
	return &Writer{f: f, path: path, syncEvery: normalizeSyncEvery(opts.SyncEvery), recovered: rec, inFrame: open}, nil
}

func normalizeSyncEvery(n int) int {
	if n <= 0 {
		return defaultSyncEvery
	}
	return n
}

// Begin implements Sink.
func (w *Writer) Begin(m Manifest) ([]Verdict, error) {
	if w.began {
		return nil, fmt.Errorf("journal: Begin called twice")
	}
	w.began = true
	if w.recovered != nil {
		if err := w.recovered.Manifest.CheckCompatible(m); err != nil {
			return nil, err
		}
		return w.recovered.Verdicts, nil
	}
	w.appendFrame(encodeManifest(m))
	// The manifest must be durable before any verdict that cites it.
	if err := w.fsync(); err != nil {
		return nil, err
	}
	return nil, nil
}

// Record implements Sink.
func (w *Writer) Record(i, j int, matched bool) error {
	return w.record(recVerdict, i, j, matched)
}

// RecordTier implements Sink: appends a tier-labeled verdict, which
// resume accounting keeps separate from the purchased ones.
func (w *Writer) RecordTier(i, j int, matched bool) error {
	return w.record(recTierVerdict, i, j, matched)
}

// record adds one verdict to the open span, first closing it and opening
// another when the verdict's kind differs or it is off the span's line:
// the row of its first verdict's i, or — when the second verdict shares
// only j — the column of its j. (A long span is cut by the window bound:
// appended flushes, closing the span, before its payload can exceed
// maxPayload.)
func (w *Writer) record(kind byte, i, j int, matched bool) error {
	if err := w.ready("Record"); err != nil {
		return err
	}
	if i < 0 || j < 0 || int64(i) > int64(^uint32(0)) || int64(j) > int64(^uint32(0)) {
		return fmt.Errorf("journal: pair (%d,%d) outside the uint32 record-index range", i, j)
	}
	ui, uj := uint32(i), uint32(j)
	switch {
	case !w.extends(kind, ui, uj):
		w.closeSpan()
		w.spanKind, w.spanI, w.spanJ, w.spanN = kind, ui, uj, 0
		w.spanBits = w.spanBits[:0]
	case w.spanN == 1:
		// The span's second verdict decides its line, and its frame
		// begins. Length and count are filled in when it closes.
		w.spanCol = ui != w.spanI
		spanType, fixed, first, next := recSpan, w.spanI, w.spanJ, uj
		if w.spanCol {
			spanType, fixed, first, next = recColSpan, w.spanJ, w.spanI, ui
		}
		if kind == recTierVerdict {
			spanType++ // recTierSpan, recTierColSpan
		}
		w.spanAt = len(w.buf)
		w.buf = append(w.buf, 0, 0, 0, 0, spanType)
		w.buf = binary.LittleEndian.AppendUint32(w.buf, fixed)
		w.buf = append(w.buf, 0, 0)
		w.buf = binary.LittleEndian.AppendUint32(w.buf, first)
		w.buf = binary.LittleEndian.AppendUint32(w.buf, next)
	case w.spanCol:
		w.buf = binary.LittleEndian.AppendUint32(w.buf, ui)
	default:
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uj)
	}
	if w.spanN%8 == 0 {
		w.spanBits = append(w.spanBits, 0)
	}
	if matched {
		w.spanBits[w.spanN/8] |= 1 << (w.spanN % 8)
	}
	w.spanN++
	w.recorded++
	return w.appended()
}

// extends reports whether a verdict of kind on (i, j) belongs to the open
// span: same kind, and on its line — either one once it holds a verdict,
// the one the second verdict chose after that.
func (w *Writer) extends(kind byte, i, j uint32) bool {
	switch {
	case kind != w.spanKind:
		return false
	case w.spanN == 1:
		return i == w.spanI || j == w.spanJ
	case w.spanCol:
		return j == w.spanJ
	}
	return i == w.spanI
}

// closeSpan finishes the open span's frame: a span record, or the v1
// verdict record when it holds one verdict, so a run of one costs what it
// always did.
func (w *Writer) closeSpan() {
	if w.spanKind == 0 {
		return
	}
	kind := w.spanKind
	w.spanKind, w.spanCol = 0, false
	if w.spanN == 1 {
		var one [verdictPayloadLen]byte
		one[0] = kind
		binary.LittleEndian.PutUint32(one[1:5], w.spanI)
		binary.LittleEndian.PutUint32(one[5:9], w.spanJ)
		one[9] = w.spanBits[0]
		w.frame(one[:])
		return
	}
	binary.LittleEndian.PutUint16(w.buf[w.spanAt+4+5:], uint16(w.spanN))
	w.buf = append(w.buf, w.spanBits...)
	payload := w.buf[w.spanAt+4:]
	binary.LittleEndian.PutUint32(w.buf[w.spanAt:], uint32(len(payload)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(payload, crcTable))
}

// windowLen is the size the window will have on the file: its frames,
// the open span's counted as if it closed now.
func (w *Writer) windowLen() int {
	switch {
	case w.spanKind == 0:
		return len(w.buf)
	case w.spanN == 1:
		return len(w.buf) + 4 + verdictPayloadLen + 4
	}
	return w.spanAt + 4 + spanPayloadLen(w.spanN) + 4
}

// ready reports why the writer cannot take a record: an earlier write
// failed, or Begin has not run.
func (w *Writer) ready(op string) error {
	if w.err == nil && !w.began {
		return fmt.Errorf("journal: %s before Begin", op)
	}
	return w.err
}

// appended counts one buffered record — a verdict or a batch mark, not a
// frame — against the sync cadence, and writes the window out early once
// it reaches flushBytes.
func (w *Writer) appended() error {
	w.unsynced++
	if w.unsynced >= w.syncEvery {
		return w.Sync()
	}
	if w.windowLen() >= flushBytes {
		return w.flush()
	}
	return nil
}

// flush closes the open span and hands the window to the file in one
// Write. os.File.Write reports a short write as an error, so a window that
// came up short fails closed.
func (w *Writer) flush() error {
	w.closeSpan()
	if w.err == nil && len(w.buf) > 0 {
		if _, err := w.f.Write(w.buf); err != nil {
			w.err = fmt.Errorf("journal: append: %w", err)
		}
		w.buf = w.buf[:0]
	}
	return w.err
}

// Sync implements Sink: writes the window and, outside a batch frame,
// flushes it to stable storage. Inside a frame the window is only
// written; the commit record fsyncs it.
func (w *Writer) Sync() error {
	if !w.inFrame {
		return w.fsync()
	}
	if err := w.flush(); err != nil {
		return err
	}
	w.unsynced = 0
	return nil
}

// fsync writes the window and flushes the file to stable storage.
func (w *Writer) fsync() error {
	if err := w.flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: fsync: %w", err)
		return w.err
	}
	w.fsyncs++
	w.unsynced = 0
	return nil
}

// Close fsyncs, inside a batch frame too, and releases the file.
func (w *Writer) Close() error {
	err := w.fsync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Path returns the journal's file path, for operator messaging.
func (w *Writer) Path() string { return w.path }

// Recorded reports how many verdicts (purchased and tier-labeled) this
// writer appended in the current session — replayed verdicts from a
// resumed journal are not counted, so after a crash-resume run the value
// is exactly the work done since the crash.
func (w *Writer) Recorded() int { return w.recorded }

// appendFrame closes the open span and appends one payload's frame.
func (w *Writer) appendFrame(payload []byte) {
	w.closeSpan()
	w.frame(payload)
}

// frame encodes one payload's frame at the end of the window:
//
//	uint32 LE payload length | payload | uint32 LE CRC32-C(payload)
//
// The checksum reads the buffered copy, so a caller's stack payload does
// not escape.
func (w *Writer) frame(payload []byte) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(payload)))
	w.buf = append(w.buf, payload...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(w.buf[len(w.buf)-len(payload):], crcTable))
}

// encodeManifest renders the manifest payload:
//
//	type byte | config digest (32) | inputs digest (32) |
//	totalPairs u64 | unknownPairs u64 | allowance u64 | seed u64 |
//	heuristic length u16 | heuristic bytes
func encodeManifest(m Manifest) []byte {
	out := make([]byte, 0, 1+32+32+8*4+2+len(m.Heuristic))
	out = append(out, recManifest)
	out = append(out, m.ConfigDigest[:]...)
	out = append(out, m.InputsDigest[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(m.TotalPairs))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.UnknownPairs))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.Allowance))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.Seed))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(m.Heuristic)))
	out = append(out, m.Heuristic...)
	return out
}
