package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pprl/internal/dataset"
	"pprl/internal/journal"
	"pprl/internal/match"
	"pprl/internal/service"
)

// liveIngest: a live dataset behind the HTTP API, fed alternating
// alice/bob batches by one closed-loop client that waits for each
// batch's deltas before sending the next.
type liveIngest struct {
	rel     *relations
	dataDir string
	batches []liveBatch
	servers int
}

// liveBatch is one append: which side grows, from which CSV.
type liveBatch struct {
	side    string
	file    string
	records int
	bytes   int64
}

// pollPause is how long the client waits between two polls for a
// batch's deltas. Without it the client's own polling, not the service,
// would dominate the process's CPU and allocations.
const pollPause = time.Millisecond

// liveJournalSync is the dataset journal's fsync cadence in records. At
// the journal's default of 64 a run makes ≈39k fsyncs and is 60–70 %
// fsync wait; on the shared hosts this benchmark runs on, fsync latency
// moved threefold between back-to-back runs (13.5 s to 28 s of wall for
// identical work), which no regression bound survives. At 4096 the
// batch marks and commits still sync, the run is bound by the engine,
// and the journal's own cost is reported by the journal.* probes.
const liveJournalSync = 4096

func (w *liveIngest) par() int       { return 1 }
func (w *liveIngest) digest() string { return w.rel.digest }

// prepare cuts each relation into the batch files the API will be
// pointed at (the daemon takes server-side CSV references, never record
// data), alternating alice and bob.
func (w *liveIngest) prepare(e *env) (err error) {
	if w.rel, err = genRelations(e.sz.LiveRecords, e.seed); err != nil {
		return err
	}
	w.dataDir = filepath.Join(e.tmp, "data")
	if err := os.MkdirAll(w.dataDir, 0o755); err != nil {
		return err
	}
	nb := e.sz.LiveBatches
	for b := 0; b < nb; b++ {
		for _, s := range []struct {
			side string
			d    *dataset.Dataset
		}{{"alice", w.rel.alice}, {"bob", w.rel.bob}} {
			part := s.d.Slice(b*s.d.Len()/nb, (b+1)*s.d.Len()/nb)
			name := fmt.Sprintf("%s-%03d.csv", s.side, b)
			f, err := os.Create(filepath.Join(w.dataDir, name))
			if err != nil {
				return err
			}
			if err := part.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			st, _ := f.Stat()
			if err := f.Close(); err != nil {
				return err
			}
			w.batches = append(w.batches, liveBatch{side: s.side, file: name, records: part.Len(), bytes: st.Size()})
		}
	}
	return nil
}

// liveServer is one service instance with one registered dataset.
type liveServer struct {
	srv      *service.Server
	ts       *httptest.Server
	client   *http.Client
	mu       sync.Mutex
	conns    []*countConn
	dataset  string
	sink     *sinkStats
	stopOnce sync.Once
}

// stop closes the client and the listener and drains the service. Safe
// to call more than once and from the signal handler.
func (s *liveServer) stop() {
	s.stopOnce.Do(func() {
		s.client.CloseIdleConnections()
		s.ts.Close()
		s.srv.Drain()
	})
}

// start brings a service up in a fresh state directory and registers
// the dataset: plaintext oracle, unlimited allowance, default journal
// sync. It returns how long service.New plus the registration took.
// With a tracer, the dataset's journal is wrapped at the service's own
// hook and the client's connections count their bytes.
func (w *liveIngest) start(e *env, tr *tracer) (*liveServer, time.Duration, error) {
	w.servers++
	ls := &liveServer{sink: &sinkStats{}}
	cfg := service.Config{Dir: filepath.Join(e.tmp, fmt.Sprintf("state-%d", w.servers)), DataDir: w.dataDir, JournalSync: liveJournalSync}
	if tr != nil {
		cfg.Hooks.WrapDatasetJournal = func(id string, jw *journal.Writer) journal.BatchSink {
			return &batchSinkWrap{sinkWrap: sinkWrap{inner: jw, st: ls.sink, tr: tr, quiet: true}, inner: jw}
		}
	}
	dial := (&net.Dialer{}).DialContext
	transport := &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 2,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dial(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			cc := &countConn{Conn: c}
			ls.mu.Lock()
			ls.conns = append(ls.conns, cc)
			ls.mu.Unlock()
			return cc, nil
		}}
	ls.client = &http.Client{Transport: transport, Timeout: 30 * time.Second}

	t0 := time.Now()
	srv, err := service.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ls.srv = srv
	ls.ts = httptest.NewServer(srv.Handler())
	e.clean.add(ls.stop)
	code, body, err := ls.do("POST", "/v1/datasets", fmt.Sprintf(`{"theta":%v}`, theta))
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(t0)
	var st service.DatasetStatus
	if code != http.StatusCreated || json.Unmarshal(body, &st) != nil || st.ID == "" {
		return nil, 0, fmt.Errorf("registering dataset: HTTP %d: %s", code, body)
	}
	ls.dataset = st.ID
	return ls, took, nil
}

// do sends one request and reads the whole response.
func (s *liveServer) do(method, path, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, s.ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// setup times one service start and dataset registration. That is a
// millisecond or two of directories, small files and one fsync, and it
// follows the storage's mood, not the CPU's: between two sets of runs
// minutes apart it moved by 40 % while every CPU-bound number held. So
// it is normalised by a reference made of the same kind of work, taken
// right before and after, and not by the modexp.
func (w *liveIngest) setup(e *env) (time.Duration, error) {
	before, err := fsReference(e.tmp)
	if err != nil {
		return 0, err
	}
	ls, took, err := w.start(e, nil)
	if err != nil {
		return 0, err
	}
	ls.stop()
	after, err := fsReference(e.tmp)
	if err != nil {
		return 0, err
	}
	return time.Duration(float64(took) * fsNominalNs / (float64(before+after) / 2)), nil
}

// selfNormalisedSetup tells the run that setup already returns
// reference time.
func (w *liveIngest) selfNormalisedSetup() {}

// fsNominalNs is the nominal cost of one fsReference.
const fsNominalNs = 1_000_000

// fsReference does what a service set-up is made of — nested
// directories, a small file written, synced and renamed into place —
// and returns how long that took.
func fsReference(dir string) (time.Duration, error) {
	root := filepath.Join(dir, "fs-reference")
	defer os.RemoveAll(root)
	t0 := time.Now()
	leaf := filepath.Join(root, "datasets", "ds-000001")
	if err := os.MkdirAll(leaf, 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(filepath.Join(leaf, "ingest.tmp"))
	if err != nil {
		return 0, err
	}
	_, err = f.Write(make([]byte, 128))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(filepath.Join(leaf, "ingest.tmp"), filepath.Join(leaf, "ingest.wal"))
	}
	return time.Since(t0), err
}

// ingestStats is what the client observed over one run of appends.
type ingestStats struct {
	ops             []op      // POST sent to deltas visible, per batch
	ack, apply, get []float64 // raw milliseconds per batch
	bodyBytes       int64     // request + response bodies that carried data
	refused         int64
	failed          int64
	deltas          map[match.Pair]int
	start, end      time.Time
	cal             time.Duration
}

// ingest posts the batches one after another; after each 202 it polls
// the deltas page until the batch is visible, and integrates the page.
func (w *liveIngest) ingest(e *env, ls *liveServer, batches []liveBatch, reg *region, seamEvery int, tr *tracer) (*ingestStats, error) {
	st := &ingestStats{deltas: map[match.Pair]int{}}
	dropped := e.canary != "drop"
	cal0 := reg.calSince()
	st.start = time.Now()
	for b, lb := range batches {
		if seamEvery > 0 && b > 0 && b%seamEvery == 0 {
			reg.seam()
		}
		root := tr.begin("service.batch", 0)
		body := fmt.Sprintf(`{"side":%q,"path":%q}`, lb.side, lb.file)
		id := tr.begin("service.post", root)
		t0 := time.Now()
		code, ackBody, err := ls.do("POST", "/v1/datasets/"+ls.dataset+"/records", body)
		t1 := time.Now()
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		if code != http.StatusAccepted {
			st.failed++
			if code == http.StatusServiceUnavailable {
				st.refused++
			}
			return nil, fmt.Errorf("batch %d: append answered HTTP %d: %s", b, code, ackBody)
		}
		var page service.DeltasResponse
		var g0 time.Time
		apply := tr.begin("service.apply", root)
		for {
			g0 = time.Now()
			code, raw, err := ls.do("GET", fmt.Sprintf("/v1/datasets/%s/deltas?from=%d", ls.dataset, b), "")
			if err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("batch %d: polling deltas: HTTP %d: %v", b, code, err)
			}
			if err := json.Unmarshal(raw, &page); err != nil {
				return nil, fmt.Errorf("batch %d: deltas page: %w", b, err)
			}
			if page.Next > b {
				st.bodyBytes += int64(len(body)+len(ackBody)) + int64(len(raw))
				break
			}
			time.Sleep(pollPause)
		}
		t2 := time.Now()
		tr.end(apply)
		tr.end(root)
		st.ops = append(st.ops, op{start: t0, end: t2})
		st.ack = append(st.ack, t1.Sub(t0).Seconds()*1e3)
		st.apply = append(st.apply, t2.Sub(t1).Seconds()*1e3)
		st.get = append(st.get, t2.Sub(g0).Seconds()*1e3)
		for _, d := range page.Deltas {
			if !dropped {
				dropped = true // the canary loses exactly one delta
				continue
			}
			st.deltas[match.Pair{I: d.I, J: d.J}]++
		}
	}
	st.end = time.Now()
	st.cal = reg.calSince() - cal0
	return st, nil
}

func (w *liveIngest) pass(e *env, tr *tracer) (*outcome, error) {
	warm, _, err := w.start(e, nil)
	if err != nil {
		return nil, err
	}
	_, err = w.ingest(e, warm, w.batches[:min(e.sz.WarmBatches, len(w.batches))], nil, 0, nil)
	warm.stop()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	ls, _, err := w.start(e, tr)
	if err != nil {
		return nil, err
	}
	defer ls.stop()
	seamEvery := max(1, len(w.batches)/max(1, e.ref.target-1))
	reg := beginRegion(e.ref, 1, e.ref.target, false)
	ing, err := w.ingest(e, ls, w.batches, reg, seamEvery, tr)
	stats := reg.end()
	if err != nil {
		return nil, err
	}
	code, raw, err := ls.do("GET", "/v1/datasets/"+ls.dataset, "")
	var status service.DatasetStatus
	if err != nil || code != http.StatusOK || json.Unmarshal(raw, &status) != nil {
		return nil, fmt.Errorf("reading dataset status: HTTP %d: %v", code, err)
	}
	var connBytes int64
	ls.mu.Lock()
	for _, c := range ls.conns {
		connBytes += c.total()
	}
	ls.mu.Unlock()
	ls.stop() // drains the engine, so the journal wrapper's counters are final

	records := w.rel.alice.Len() + w.rel.bob.Len()
	o := &outcome{layer: map[string]float64{}, stats: stats, rawWallS: stats.Wall.Seconds(), calS: stats.Cal.Seconds()}
	o.linkS = stats.ref(ing.end.Sub(ing.start) - ing.cal)
	o.pairsPerS = float64(status.Stats.Used) / o.linkS
	o.wirePerPair = float64(ing.bodyBytes) / float64(status.Stats.Used)
	o.allocMB = float64(stats.AllocBytes) / 1e6
	o.recordsPerS = float64(records) / o.linkS
	lat := opLatencies(stats, ing.ops)
	o.p50ms, o.p95ms = percentile(lat, 50), percentile(lat, 95)
	o.attempted = int64(len(w.batches))
	o.failed = ing.failed

	// The dataset runs with an unlimited allowance under
	// maximize-precision, so the union of its deltas must be exactly the
	// true pairs — which is also what a frozen run over the final
	// relations reports.
	var tp, extra, dup int64
	for p, n := range ing.deltas {
		if n > 1 {
			dup += int64(n - 1)
		}
		if w.rel.truthSet[p.Key(w.rel.bob.Len())] {
			tp++
		} else {
			extra++
		}
	}
	missing := int64(len(w.rel.truth)) - tp
	o.failed += extra + dup + missing
	o.recall, o.precision = 1, 1
	if len(w.rel.truth) > 0 {
		o.recall = float64(tp) / float64(len(w.rel.truth))
	}
	if tp+extra > 0 {
		o.precision = float64(tp) / float64(tp+extra)
	}
	if status.Applied != len(w.batches) || status.Stats.Records[0]+status.Stats.Records[1] != records {
		o.failed++
	}

	l := o.layer
	l["service.post_ack_p50_ms"] = percentile(ing.ack, 50)
	l["service.post_ack_p95_ms"] = percentile(ing.ack, 95)
	l["service.apply_p50_ms"] = percentile(ing.apply, 50)
	l["service.deltas_get_p50_ms"] = percentile(ing.get, 50)
	l["service.http_bytes_per_batch"] = float64(connBytes) / float64(len(w.batches))
	l["service.refused_503"] = float64(ing.refused)
	l["journal.busy_s"] = ls.sink.busy.Seconds()
	l["journal.syncs"] = float64(ls.sink.syncs)
	return o, nil
}

func (w *liveIngest) probe(e *env, layer map[string]float64) error {
	if err := probeJournal(e, layer); err != nil {
		return err
	}
	if err := probeLiveIndex(e, w.rel, layer); err != nil {
		return err
	}
	if err := probeIncremental(e, w, layer); err != nil {
		return err
	}
	return probeCSV(e, w, layer)
}
