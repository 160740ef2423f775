package main

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"time"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/core"
	"pprl/internal/dataset"
	"pprl/internal/dpblock"
	"pprl/internal/heuristic"
	"pprl/internal/incremental"
	"pprl/internal/index"
	"pprl/internal/journal"
	"pprl/internal/paillier"
	"pprl/internal/smc"
)

// A probe is a dedicated call sequence into one layer, run only in the
// traced run. Its timings are reference-normalised like everything
// else: samples bracket the sequence, and long sequences are sampled
// again between operations.

// timeOps calls op n times after warm untimed calls and returns each
// call's duration in reference nanoseconds.
func timeOps(e *env, par, warm, n int, op func(i int) error) ([]float64, error) {
	for i := 0; i < warm; i++ {
		if err := op(i); err != nil {
			return nil, err
		}
	}
	var samples []float64
	sample := func() {
		quiesce(nil) // probes of the secure engines leave pool refills running
		e.ref.run(par, refWarmOps)
		for i := 0; i < 3; i++ {
			samples = append(samples, e.ref.sample(par))
		}
	}
	sample()
	last := time.Now()
	raw := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := op(warm + i); err != nil {
			return nil, err
		}
		raw = append(raw, float64(time.Since(t0)))
		if time.Since(last) > 500*time.Millisecond && i < n-1 {
			sample()
			last = time.Now()
		}
	}
	sample()
	scale := refNominalNs / mean(samples)
	for i := range raw {
		raw[i] *= scale
	}
	return raw, nil
}

// probePaillier times the Paillier kernels on one goroutine at the run's
// key size.
func probePaillier(e *env, layer map[string]float64) error {
	bits := e.sz.KeyBits
	n := e.sz.ProbeOps
	var sk *paillier.PrivateKey
	ns, err := timeOps(e, 1, 0, max(5, n/3), func(int) (err error) {
		sk, err = paillier.GenerateKey(rand.Reader, bits)
		return err
	})
	if err != nil {
		return err
	}
	layer["paillier.keygen_ms"] = median(ns) / 1e6
	pk := sk.Public()
	msg := big.NewInt(1<<39 + 12345)
	var ct *paillier.Ciphertext
	med := func(name string, op func(i int) error) error {
		ns, err := timeOps(e, 1, 2, n, op)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		layer[name] = median(ns) / 1e3
		return nil
	}
	if err := med("paillier.encrypt_us", func(int) (err error) {
		ct, err = pk.Encrypt(rand.Reader, msg)
		return err
	}); err != nil {
		return err
	}
	// A pool whose buffer holds every draw the probe makes, given time to
	// fill: the timed encryptions find their noise ready.
	pool := paillier.NewRandomizerPool(pk, 1, n+4)
	quiesce(nil) // until the filler has nothing left to do
	err = med("paillier.pool_encrypt_us", func(int) error {
		_, err := pool.Encrypt(msg)
		return err
	})
	pool.Close()
	if err != nil {
		return err
	}
	if err := med("paillier.decrypt_us", func(int) error {
		_, err := sk.Decrypt(ct)
		return err
	}); err != nil {
		return err
	}
	small := big.NewInt(40503)
	full := new(big.Int).Sub(pk.N, big.NewInt(3))
	var sink *paillier.Ciphertext
	if err := med("paillier.mulconst_small_us", func(int) error { sink = pk.MulConst(ct, small); return nil }); err != nil {
		return err
	}
	if err := med("paillier.mulconst_full_us", func(int) error { sink = pk.MulConst(ct, full); return nil }); err != nil {
		return err
	}
	if err := med("paillier.add_us", func(int) error { sink = pk.Add(ct, sink); return nil }); err != nil {
		return err
	}
	plan, err := paillier.NewPackPlan(pk.N.BitLen(), bits/8)
	if err != nil {
		return err
	}
	cts := make([]*paillier.Ciphertext, 5)
	for i := range cts {
		if cts[i], err = pk.EncryptInt64(rand.Reader, int64(1000*i-2000)); err != nil {
			return err
		}
	}
	return med("paillier.pack_unpack_us", func(int) error {
		packed, err := pk.PackSigned(cts, plan)
		if err != nil {
			return err
		}
		_, err = sk.UnpackSigned(packed[0], plan, len(cts))
		return err
	})
}

// probePairs draws n deterministic record pairs of the relations.
func probePairs(rel *relations, n int) [][2]int {
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{(i * 7) % rel.alice.Len(), (i * 13) % rel.bob.Len()}
	}
	return pairs
}

// probeSMC times comparator construction, serial comparisons, and the
// one-lane against two-lane batch path over one list of pairs.
func probeSMC(e *env, rel *relations, layer map[string]float64) error {
	a, b := rel.encoded(true), rel.encoded(false)
	bits := e.sz.KeyBits
	var built smc.Comparator
	ns, err := timeOps(e, parallelism, 0, e.sz.Setups, func(int) (err error) {
		if built != nil {
			built.Close()
		}
		built, err = smc.NewLocalSecureSharded(rel.spec, a, b, bits, parallelism)
		return err
	})
	if err != nil {
		return err
	}
	built.Close()
	layer["smc.construct_ms"] = median(ns) / 1e6

	serial, err := smc.NewLocalSecure(rel.spec, a, b, bits)
	if err != nil {
		return err
	}
	defer serial.Close()
	pairs := probePairs(rel, e.sz.CompareProbe+2)
	ns, err = timeOps(e, parallelism, 2, e.sz.CompareProbe, func(i int) error {
		_, err := serial.Compare(pairs[i][0], pairs[i][1])
		return err
	})
	if err != nil {
		return err
	}
	layer["smc.compare_p50_ms"] = percentile(ns, 50) / 1e6
	layer["smc.compare_p95_ms"] = percentile(ns, 95) / 1e6

	// Both engines run the list once untimed first, so both time it with
	// Alice's share cache holding every record it names.
	lanePairs := probePairs(rel, e.sz.LaneProbePairs)
	rate := func(cmp batcher) (float64, error) {
		ns, err := timeOps(e, parallelism, 1, 1, func(int) error {
			_, err := cmp.CompareBatch(lanePairs)
			return err
		})
		if err != nil {
			return 0, err
		}
		return float64(len(lanePairs)) / (ns[0] / 1e9), nil
	}
	lane1, err := rate(serial)
	if err != nil {
		return err
	}
	sharded, err := smc.NewLocalSecureSharded(rel.spec, a, b, bits, parallelism)
	if err != nil {
		return err
	}
	defer sharded.Close()
	lane2, err := rate(sharded)
	if err != nil {
		return err
	}
	layer["smc.lane1_pairs_per_s"] = lane1
	layer["smc.lane2_pairs_per_s"] = lane2
	layer["smc.lane_speedup"] = lane2 / lane1
	return nil
}

// probeInproc measures the in-process two-lane engine on the workload's
// own relations, as pairs per reference second inside the comparator.
// session-tcp and fleet-procs divide by it.
func probeInproc(e *env, rel *relations) (float64, error) {
	cfg := baseConfig(rel)
	cfg.Allowance = int64(e.sz.InprocPairs)
	run, err := timedLink(e, rel, cfg, nil, linkOpts{par: parallelism, seams: e.sz.InprocPairs/secureHint + 2,
		factory: core.SecureComparatorFactory(e.sz.KeyBits), hint: secureHint})
	if err != nil {
		return 0, err
	}
	return batchRate(run.stats, run.cmp.ops), nil
}

// probeBlocking times dense and indexed blocking and the heuristic
// ordering on the workload's views at k = 32, and blocking again at
// k = 2, where the class-pair matrix is large enough for an engine
// change to show.
func probeBlocking(e *env, rel *relations, layer map[string]float64) error {
	for _, k := range []int{anonymityK, 2} {
		av, err := anonymize.NewMaxEntropy().Anonymize(rel.alice, rel.qids, k)
		if err != nil {
			return err
		}
		bv, err := anonymize.NewMaxEntropy().Anonymize(rel.bob, rel.qids, k)
		if err != nil {
			return err
		}
		n := e.sz.ProbeOps
		if k == 2 {
			n = max(3, n/6) // hundreds of milliseconds each
		}
		var dense, indexed *blocking.Result
		ns, err := timeOps(e, parallelism, 1, n, func(int) (err error) {
			dense, err = blocking.Block(av, bv, rel.rule)
			return err
		})
		if err != nil {
			return err
		}
		layer[fmt.Sprintf("blocking.dense_k%d_ms", k)] = median(ns) / 1e6
		ns, err = timeOps(e, 1, 1, n, func(int) (err error) {
			indexed, err = index.Block(av, bv, rel.rule)
			return err
		})
		if err != nil {
			return err
		}
		layer[fmt.Sprintf("index.block_k%d_ms", k)] = median(ns) / 1e6
		if dense.UnknownPairs != indexed.UnknownPairs || dense.MatchedPairs != indexed.MatchedPairs {
			return fmt.Errorf("dense and indexed blocking disagree at k=%d", k)
		}
		if k != anonymityK {
			continue
		}
		if indexed.Stats != nil {
			layer["index.pruned_fraction"] = indexed.Stats.PrunedFraction()
		}
		ns, err = timeOps(e, 1, 1, n, func(int) error {
			heuristic.Order(dense, rel.rule, heuristic.MinAvgFirst{}, false)
			return nil
		})
		if err != nil {
			return err
		}
		layer["heuristic.order_ms"] = median(ns) / 1e6
	}
	return nil
}

// probeViews times serializing and parsing Alice's k = 32 view.
func probeViews(e *env, rel *relations, layer map[string]float64) error {
	view, err := anonymize.NewMaxEntropy().Anonymize(rel.alice, rel.qids, anonymityK)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	ns, err := timeOps(e, 1, 1, e.sz.ProbeOps, func(int) error {
		buf.Reset()
		return anonymize.WriteView(&buf, rel.schema, view)
	})
	if err != nil {
		return err
	}
	layer["anonymize.view_write_ms"] = median(ns) / 1e6
	layer["anonymize.view_bytes"] = float64(buf.Len())
	raw := buf.Bytes()
	ns, err = timeOps(e, 1, 1, e.sz.ProbeOps, func(int) error {
		_, err := anonymize.ReadView(bytes.NewReader(raw), rel.schema)
		return err
	})
	if err != nil {
		return err
	}
	layer["anonymize.view_read_ms"] = median(ns) / 1e6
	return nil
}

// probeOracleAndEncode times the plaintext oracle per comparison and
// the SMC encoding of one full relation.
func probeOracleAndEncode(e *env, rel *relations, layer map[string]float64) error {
	oracle := rel.oracle()
	const block = 20000
	an, bn := rel.alice.Len(), rel.bob.Len()
	ns, err := timeOps(e, 1, 1, e.sz.ProbeOps, func(r int) error {
		for i := 0; i < block; i++ {
			if _, err := oracle.Compare((r*block+i*7)%an, (i*13+r)%bn); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	layer["smc.oracle_compare_ns"] = median(ns) / block
	ns, err = timeOps(e, 1, 1, e.sz.ProbeOps, func(int) error {
		smc.EncodeRecords(rel.alice, rel.qids, 1)
		return nil
	})
	if err != nil {
		return err
	}
	layer["dataset.encode_records_ms"] = median(ns) / 1e6
	return nil
}

// probeJournal times the journal writer in the run's scratch directory,
// the filesystem the workloads' own journals live on. These are raw
// times: an fsync does not speed up with the CPU.
func probeJournal(e *env, layer map[string]float64) error {
	dir, err := os.MkdirTemp(e.tmp, "journal-probe-")
	if err != nil {
		return err
	}
	manifest := journal.Manifest{Allowance: 1, Heuristic: "minAvgFirst"}
	open := func(name string, syncEvery int) (*journal.Writer, error) {
		jw, err := journal.Create(filepath.Join(dir, name), journal.Options{SyncEvery: syncEvery})
		if err != nil {
			return nil, err
		}
		if _, err := jw.Begin(manifest); err != nil {
			jw.Close()
			return nil, err
		}
		return jw, nil
	}

	// Appends alone: a cadence no run reaches, so no fsync interferes.
	const bulk = 200000
	jw, err := open("bulk.wal", bulk*2)
	if err != nil {
		return err
	}
	var rec []float64
	for i := 0; i < bulk; i++ {
		t0 := time.Now()
		if err := jw.Record(i, i+1, i%3 == 0); err != nil {
			jw.Close()
			return err
		}
		if i%100 == 0 {
			rec = append(rec, float64(time.Since(t0))/1e3)
		}
	}
	if err := jw.Close(); err != nil {
		return err
	}
	layer["journal.record_us"] = median(rec)

	st, err := os.Stat(filepath.Join(dir, "bulk.wal"))
	if err != nil {
		return err
	}
	var replay []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		got, err := journal.Replay(filepath.Join(dir, "bulk.wal"))
		if err != nil {
			return err
		}
		if len(got.Verdicts) != bulk {
			return fmt.Errorf("journal replay returned %d of %d verdicts", len(got.Verdicts), bulk)
		}
		replay = append(replay, float64(st.Size())/1e6/time.Since(t0).Seconds())
	}
	layer["journal.replay_mb_per_s"] = median(replay)

	if jw, err = open("sync.wal", bulk); err != nil {
		return err
	}
	var syncs []float64
	for i := 0; i < 2*e.sz.ProbeOps; i++ {
		if err := jw.Record(i, i, true); err != nil {
			jw.Close()
			return err
		}
		t0 := time.Now()
		if err := jw.Sync(); err != nil {
			jw.Close()
			return err
		}
		syncs = append(syncs, float64(time.Since(t0))/1e6)
	}
	jw.Close()
	layer["journal.sync_p50_ms"] = percentile(syncs, 50)
	layer["journal.sync_p95_ms"] = percentile(syncs, 95)

	// The default cadence: 64 records, the last of which syncs.
	if jw, err = open("cadence.wal", 0); err != nil {
		return err
	}
	var groups []float64
	for g := 0; g < e.sz.ProbeOps; g++ {
		t0 := time.Now()
		for i := 0; i < 64; i++ {
			if err := jw.Record(g, i, false); err != nil {
				jw.Close()
				return err
			}
		}
		groups = append(groups, float64(time.Since(t0))/1e6)
	}
	layer["journal.append64_ms"] = median(groups)
	return jw.Close()
}

// probeLiveIndex fills a live index with every record's fixed-level bin
// sequence of one relation and then probes it with the other's.
func probeLiveIndex(e *env, rel *relations, layer map[string]float64) error {
	binner, err := dpblock.NewLevelBinner(0)
	if err != nil {
		return err
	}
	av, err := binner.Anonymize(rel.alice, rel.qids, 1)
	if err != nil {
		return err
	}
	bv, err := binner.Anonymize(rel.bob, rel.qids, 1)
	if err != nil {
		return err
	}
	live := index.NewLive(rel.rule)
	ns, err := timeOps(e, 1, 0, rel.alice.Len(), func(i int) error {
		_, err := live.Insert(av.SequenceOf(i))
		return err
	})
	if err != nil {
		return err
	}
	layer["index.live_insert_us"] = median(ns) / 1e3
	hits := 0
	ns, err = timeOps(e, 1, 2, 10*e.sz.ProbeOps, func(i int) error {
		live.Candidates(bv.SequenceOf(i%rel.bob.Len()), func(int) { hits++ })
		return nil
	})
	if err != nil {
		return err
	}
	if hits == 0 {
		return fmt.Errorf("live index admitted no candidate for any probe")
	}
	layer["index.live_probe_us"] = median(ns) / 1e3
	return nil
}

// probeIncremental drives the incremental engine directly with the
// workload's own batches: no HTTP, no journal.
func probeIncremental(e *env, w *liveIngest, layer map[string]float64) error {
	eng, err := incremental.New(w.rel.schema, incremental.Config{QIDs: w.rel.qidNames, Theta: theta})
	if err != nil {
		return err
	}
	nb := e.sz.LiveBatches
	slice := func(i int) (int, []dataset.Record) {
		d, side := w.rel.alice, 0
		if i%2 == 1 {
			d, side = w.rel.bob, 1
		}
		b := i / 2
		return side, d.Slice(b*d.Len()/nb, (b+1)*d.Len()/nb).Records()
	}
	ns, err := timeOps(e, 1, 0, 2*nb, func(i int) error {
		side, recs := slice(i)
		_, err := eng.Append(side, recs)
		return err
	})
	if err != nil {
		return err
	}
	st := eng.Stats()
	layer["incremental.append_p50_ms"] = percentile(ns, 50) / 1e6
	layer["incremental.spent_per_record"] = float64(st.Used) / float64(st.Records[0]+st.Records[1])
	layer["incremental.deltas"] = float64(st.Deltas)
	if st.Deltas != len(w.rel.truth) {
		return fmt.Errorf("incremental engine emitted %d deltas for %d true pairs", st.Deltas, len(w.rel.truth))
	}
	return nil
}

// probeCSV times parsing the workload's batch files the way the service
// does on its request path.
func probeCSV(e *env, w *liveIngest, layer map[string]float64) error {
	n := min(2*e.sz.ProbeOps, len(w.batches))
	var total int64
	ns, err := timeOps(e, 1, 1, n-1, func(i int) error {
		lb := w.batches[i]
		st, err := dataset.OpenStream(w.rel.schema, filepath.Join(w.dataDir, lb.file), dataset.StreamOptions{})
		if err != nil {
			return err
		}
		defer st.Close()
		d, err := st.ReadAll()
		if err == nil && d.Len() != lb.records {
			err = fmt.Errorf("%s: read %d of %d records", lb.file, d.Len(), lb.records)
		}
		if i > 0 {
			total += lb.bytes
		}
		return err
	})
	if err != nil {
		return err
	}
	var sum float64
	for _, v := range ns {
		sum += v
	}
	layer["dataset.csv_read_mb_per_s"] = float64(total) / 1e6 / (sum / 1e9)
	return nil
}
