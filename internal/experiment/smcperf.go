package experiment

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"pprl/internal/paillier"
	"pprl/internal/smc"
)

// SMCPerfEngine is one engine × packing cell of the SMC benchmark grid.
type SMCPerfEngine struct {
	// Engine is "serial" or "sharded"; Packing is "off" or "packed".
	Engine  string `json:"engine"`
	Packing string `json:"packing"`
	Workers int    `json:"workers"`

	Seconds float64 `json:"seconds"`
	Rate    float64 `json:"comparisons_per_sec"`

	// BytesPerComparison is all protocol traffic; ResultBytesPerComparison
	// is just Bob's MsgResult leg — the traffic slot packing compresses.
	BytesPerComparison       int64 `json:"bytes_per_comparison"`
	ResultBytesPerComparison int64 `json:"result_bytes_per_comparison"`
	// DecryptionsPerComparison is the querying party's CRT decryption
	// count per comparison: d unpacked, ⌈d/slots⌉ packed.
	DecryptionsPerComparison float64 `json:"decryptions_per_comparison"`
}

// SMCPerfReport is the machine-readable SMC engine benchmark that
// `pprl-bench -json` writes to BENCH_smc.json: throughput of the serial
// and sharded comparators over an identical workload in both result
// encodings, plus the derived speedup ratios.
type SMCPerfReport struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	// Workers is the sharded engine's lane count.
	Workers    int `json:"workers"`
	KeyBits    int `json:"key_bits"`
	Attributes int `json:"attributes"`
	Pairs      int `json:"pairs"`

	// KeygenSeconds is the fixed per-session cost the throughput numbers
	// deliberately exclude.
	KeygenSeconds float64 `json:"keygen_seconds"`

	// Engines holds the four grid cells in a fixed order:
	// serial/off, serial/packed, sharded/off, sharded/packed.
	Engines []SMCPerfEngine `json:"engines"`

	// Speedup is sharded-packed rate over serial-packed rate (the lane
	// scaling at the default encoding); PackedSpeedup is serial-packed
	// over serial-off (the tentpole's single-lane win); and
	// DecryptionReduction is the unpacked-to-packed ratio of decryptions
	// per comparison (d over ⌈d/slots⌉).
	Speedup             float64 `json:"speedup"`
	PackedSpeedup       float64 `json:"packed_speedup"`
	DecryptionReduction float64 `json:"decryption_reduction"`
}

// WriteJSON renders the report as indented JSON.
func (r *SMCPerfReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// smcPerfSpec builds an attrs-wide circuit alternating the threshold and
// equality modes, mirroring a mixed quasi-identifier rule.
func smcPerfSpec(attrs int, packing smc.Packing) *smc.Spec {
	spec := &smc.Spec{Scale: 1, Packing: packing}
	for a := 0; a < attrs; a++ {
		if a%2 == 0 {
			spec.Attrs = append(spec.Attrs, smc.AttrSpec{Mode: smc.ModeThreshold, T: 16})
		} else {
			spec.Attrs = append(spec.Attrs, smc.AttrSpec{Mode: smc.ModeEquality})
		}
	}
	return spec
}

// smcPerfComparator is the slice of the comparator surface the benchmark
// reads; both secure engines implement it.
type smcPerfComparator interface {
	smc.Comparator
	smc.BatchComparator
	ResultBytes() int64
	Decryptions() int64
}

// SMCPerf benchmarks the secure comparator engines: pairs comparisons at
// keyBits over an attrs-attribute circuit, through the serial
// SecureComparator and the sharded engine with workers lanes (≤ 0 =
// GOMAXPROCS), each once per result encoding. All four cells run real
// Paillier circuits over the same records; verdict disagreement between
// any two cells is an error.
func SMCPerf(keyBits, attrs, pairsN, workers int) (*SMCPerfReport, *Table, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const holders = 24
	alice := make([][]int64, holders)
	bob := make([][]int64, holders)
	for i := range alice {
		alice[i] = make([]int64, attrs)
		bob[i] = make([]int64, attrs)
		for a := 0; a < attrs; a++ {
			alice[i][a] = int64((i*7 + a) % 23)
			bob[i][a] = int64((i*5 + a*3) % 23)
		}
	}
	pairs := make([][2]int, pairsN)
	for k := range pairs {
		pairs[k] = [2]int{(k * 3) % holders, (k * 11) % holders}
	}

	rep := &SMCPerfReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		KeyBits:    keyBits,
		Attributes: attrs,
		Pairs:      pairsN,
	}

	start := time.Now()
	if _, err := paillier.GenerateKey(rand.Reader, keyBits); err != nil {
		return nil, nil, fmt.Errorf("smcperf: keygen: %w", err)
	}
	rep.KeygenSeconds = time.Since(start).Seconds()

	var baseline []bool
	for _, packing := range []smc.Packing{smc.PackingOff, smc.PackingPacked} {
		spec := smcPerfSpec(attrs, packing)
		for _, engine := range []string{"serial", "sharded"} {
			var (
				cmp smcPerfComparator
				err error
				w   = 1
			)
			if engine == "serial" {
				cmp, err = smc.NewLocalSecure(spec, alice, bob, keyBits)
			} else {
				w = workers
				cmp, err = smc.NewLocalSecureSharded(spec, alice, bob, keyBits, workers)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("smcperf: %s/%s comparator: %w", engine, packing, err)
			}
			start = time.Now()
			verdicts, err := cmp.CompareBatch(pairs)
			if err != nil {
				cmp.Close()
				return nil, nil, fmt.Errorf("smcperf: %s/%s batch: %w", engine, packing, err)
			}
			cell := SMCPerfEngine{
				Engine:                   engine,
				Packing:                  packing.String(),
				Workers:                  w,
				Seconds:                  time.Since(start).Seconds(),
				BytesPerComparison:       cmp.BytesTransferred() / cmp.Invocations(),
				ResultBytesPerComparison: cmp.ResultBytes() / cmp.Invocations(),
				DecryptionsPerComparison: float64(cmp.Decryptions()) / float64(cmp.Invocations()),
			}
			cmp.Close()
			if cell.Seconds > 0 {
				cell.Rate = float64(pairsN) / cell.Seconds
			}
			rep.Engines = append(rep.Engines, cell)

			if baseline == nil {
				baseline = verdicts
				continue
			}
			for k := range pairs {
				if verdicts[k] != baseline[k] {
					return nil, nil, fmt.Errorf("smcperf: %s/%s verdict mismatch on pair %v", engine, packing, pairs[k])
				}
			}
		}
	}

	cell := func(engine, packing string) *SMCPerfEngine {
		for i := range rep.Engines {
			if rep.Engines[i].Engine == engine && rep.Engines[i].Packing == packing {
				return &rep.Engines[i]
			}
		}
		return nil
	}
	serialOff, serialPacked := cell("serial", "off"), cell("serial", "packed")
	shardedPacked := cell("sharded", "packed")
	if serialPacked.Rate > 0 {
		rep.Speedup = shardedPacked.Rate / serialPacked.Rate
	}
	if serialOff.Rate > 0 {
		rep.PackedSpeedup = serialPacked.Rate / serialOff.Rate
	}
	if serialPacked.DecryptionsPerComparison > 0 {
		rep.DecryptionReduction = serialOff.DecryptionsPerComparison / serialPacked.DecryptionsPerComparison
	}

	t := &Table{
		ID:      "smcperf",
		Title:   fmt.Sprintf("SMC engine throughput (%d-bit key, %d attributes, %d pairs, GOMAXPROCS=%d)", keyBits, attrs, pairsN, rep.GOMAXPROCS),
		Columns: []string{"engine", "packing", "workers", "seconds", "comparisons/sec", "decryptions/cmp", "result bytes/cmp"},
	}
	for _, c := range rep.Engines {
		t.AddRow(c.Engine, c.Packing, fmt.Sprintf("%d", c.Workers), fmt.Sprintf("%.3f", c.Seconds),
			fmt.Sprintf("%.1f", c.Rate), fmt.Sprintf("%.3f", c.DecryptionsPerComparison),
			fmt.Sprintf("%d", c.ResultBytesPerComparison))
	}
	return rep, t, nil
}
