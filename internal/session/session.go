// Package session implements the complete distributed deployment of the
// hybrid protocol: three processes — two data holders and the querying
// party — connected by message transports (typically TCP), running the
// whole pipeline over the wire:
//
//  1. the querying party broadcasts its classifier parameters (QID names
//     and the SMC circuit spec),
//  2. each holder anonymizes its relation locally (its own k and method)
//     and publishes the serialized view,
//  3. the querying party blocks on the two views, orders the Unknown
//     pairs with a selection heuristic, and
//  4. drives the budgeted Paillier SMC protocol against both holders
//     (the budget loop itself is internal/resolve, DESIGN.md §16).
//
// Raw records never leave their holder: the wire carries parameters,
// anonymized views, and ciphertexts. cmd/pprl-party wraps the three roles
// as a binary.
package session

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"pprl/internal/anonymize"
	"pprl/internal/blocking"
	"pprl/internal/bloom"
	"pprl/internal/dataset"
	"pprl/internal/distance"
	"pprl/internal/dpblock"
	"pprl/internal/heuristic"
	"pprl/internal/index"
	"pprl/internal/journal"
	"pprl/internal/match"
	"pprl/internal/metrics"
	"pprl/internal/resolve"
	"pprl/internal/smc"
)

// Role names used in hello messages.
const (
	RoleAlice = "alice"
	RoleBob   = "bob"
)

// Hello identifies this party to the querying party. Data holders call it
// immediately after connecting.
func Hello(query smc.Conn, role string) error {
	if role != RoleAlice && role != RoleBob {
		return fmt.Errorf("session: invalid role %q", role)
	}
	return query.Send(&smc.Message{Kind: smc.MsgHello, Role: role})
}

// Identify waits for a hello and returns the announced role.
func Identify(conn smc.Conn) (string, error) {
	m, err := conn.Recv()
	if err != nil {
		return "", fmt.Errorf("session: waiting for hello: %w", err)
	}
	if m.Kind != smc.MsgHello || (m.Role != RoleAlice && m.Role != RoleBob) {
		return "", fmt.Errorf("session: expected hello, got kind %d role %q", m.Kind, m.Role)
	}
	return m.Role, nil
}

// HolderConfig is one data holder's local configuration. The holder
// chooses its own privacy parameters; the classifier comes from the
// querying party over the wire.
type HolderConfig struct {
	// Data is the holder's private relation.
	Data *dataset.Dataset
	// K is the holder's anonymity requirement. Ignored under DP blocking
	// (Epsilon > 0), whose privacy guarantee comes from the noised
	// release, not class sizes.
	K int
	// Anonymizer defaults to the paper's max-entropy method, or to the
	// deterministic dpblock binner when Epsilon is set.
	Anonymizer anonymize.Anonymizer
	// Epsilon, when positive, makes this holder publish a differentially
	// private release instead of a k-anonymous view: records are binned
	// on fixed VGH ancestors and the view carries Laplace-noised bin
	// counts, so the published bin sizes are (ε, δ)-DP. Both holders must
	// opt in — the querying party refuses mixed sessions.
	Epsilon float64
	// DPDelta is the truncation mass (0 selects dpblock.DefaultDelta),
	// DPSeed this holder's noise seed, DPLevel the VGH binning depth (0
	// selects dpblock.DefaultLevel). The seed is domain-separated by
	// role (dpblock.HolderSeed) before any draw, so two holders that
	// both leave it at the default still produce uncorrelated releases;
	// it never crosses the wire. The level must match the peer's or the
	// bins never intersect.
	DPDelta float64
	DPSeed  int64
	DPLevel int
	// TierKey is the CLK keyed-hash secret shared between the holders
	// (out of band, like the schema) and withheld from the querying
	// party. Required when the broadcast parameters enable the triage
	// tier; a holder without it refuses the session rather than encode
	// with a guessable key. A DP holder refuses the tier outright
	// (dpblock.ErrTierUnderDP), before it publishes anything.
	TierKey []byte
}

// RunHolder executes a data holder end to end: receive the classifier
// parameters, anonymize, publish the view, then serve the SMC loop (as
// Alice when isAlice, else as Bob). It returns when the querying party
// shuts the session down.
func RunHolder(query, peer smc.Conn, cfg HolderConfig, isAlice bool) error {
	if cfg.Data == nil {
		return fmt.Errorf("session: holder has no data")
	}
	role := RoleBob
	if isAlice {
		role = RoleAlice
	}
	dp := cfg.Epsilon != 0 || cfg.DPDelta != 0 || cfg.DPSeed != 0 || cfg.DPLevel != 0
	var dpParams dpblock.Params
	if dp {
		if cfg.Epsilon <= 0 {
			return fmt.Errorf("session: holder DP parameters set without a positive epsilon")
		}
		binner, err := dpblock.New(dpblock.Params{
			Epsilon: cfg.Epsilon, Delta: cfg.DPDelta,
			Seed: dpblock.HolderSeed(cfg.DPSeed, role), Level: cfg.DPLevel,
		})
		if err != nil {
			return fmt.Errorf("session: %w", err)
		}
		dpParams = binner.Params()
		if cfg.Anonymizer == nil {
			cfg.Anonymizer = binner
		}
		if _, ok := cfg.Anonymizer.(*dpblock.Binner); !ok {
			return fmt.Errorf("session: epsilon set but the holder's anonymizer is %s, not the dp binner", cfg.Anonymizer.Name())
		}
	} else if cfg.K < 1 {
		return fmt.Errorf("session: holder k must be ≥ 1, got %d", cfg.K)
	}
	if cfg.Anonymizer == nil {
		cfg.Anonymizer = anonymize.NewMaxEntropy()
	}
	params, err := query.Recv()
	if err != nil {
		return fmt.Errorf("session: receiving parameters: %w", err)
	}
	if params.Kind != smc.MsgParams || params.Spec == nil || len(params.QIDs) == 0 {
		return fmt.Errorf("session: expected parameters, got kind %d", params.Kind)
	}
	if dp && params.Tier != nil {
		return fmt.Errorf("session: query enabled the triage tier: %w", dpblock.ErrTierUnderDP)
	}
	qids, err := cfg.Data.Schema().Resolve(params.QIDs)
	if err != nil {
		return fmt.Errorf("session: resolving classifier QIDs: %w", err)
	}
	if err := smc.CheckIntegral(cfg.Data.Schema(), cfg.Data.Records(), qids, params.Spec.Scale, 0); err != nil {
		return fmt.Errorf("session: %s: %w", role, err) // refused before the view is published
	}
	view, err := cfg.Anonymizer.Anonymize(cfg.Data, qids, cfg.K)
	if err != nil {
		return fmt.Errorf("session: anonymizing: %w", err)
	}
	var pad *dpblock.PadMap
	var dummyRow []int64
	if dp {
		// Attach the noised bin counts and pad the member lists before
		// the view leaves the holder: the wire carries only noised sizes
		// and permuted handles, never true bin membership, and the noise
		// seed stays here (WriteView withholds it). The dummy SMC row is
		// built now so a classifier that cannot host hidden padding is
		// refused before anything is published.
		if err := dpblock.Publish(view, dpParams); err != nil {
			return fmt.Errorf("session: noising view: %w", err)
		}
		if dummyRow, err = dpblock.DummyRow(cfg.Data.Schema(), qids, params.Spec, isAlice); err != nil {
			return fmt.Errorf("session: %w", err)
		}
		if pad, err = dpblock.Pad(view); err != nil {
			return fmt.Errorf("session: padding view: %w", err)
		}
	}
	var buf bytes.Buffer
	if err := anonymize.WriteView(&buf, cfg.Data.Schema(), view); err != nil {
		return fmt.Errorf("session: serializing view: %w", err)
	}
	if err := query.Send(&smc.Message{Kind: smc.MsgView, View: buf.Bytes()}); err != nil {
		return fmt.Errorf("session: publishing view: %w", err)
	}
	if params.Tier != nil {
		// The querying party asked for triage-tier encodings. Encode the
		// raw records under the holders' shared key and publish only the
		// filters: the matcher can compute Dice scores but, lacking the
		// key, cannot build dictionaries of candidate values.
		if len(cfg.TierKey) == 0 {
			return fmt.Errorf("session: query enabled the triage tier but this holder has no tier key (set -tier-key)")
		}
		tierEnc, err := bloom.NewEncoder(params.Tier.M, params.Tier.K, params.Tier.Q, cfg.TierKey)
		if err != nil {
			return fmt.Errorf("session: tier encoder: %w", err)
		}
		filters := bloom.EncodeRecords(tierEnc, cfg.Data, qids)
		encodings := make([][]byte, len(filters))
		for i, f := range filters {
			encodings[i] = f.Marshal()
		}
		if err := query.Send(&smc.Message{Kind: smc.MsgEncodings, Encodings: encodings}); err != nil {
			return fmt.Errorf("session: publishing tier encodings: %w", err)
		}
	}
	enc := smc.EncodeRecords(cfg.Data, qids, params.Spec.Scale)
	if pad != nil {
		// The SMC loop addresses records by published handle; dummy
		// handles answer with the sentinel row, so a compare request
		// against one runs the full protocol and verdicts NonMatch.
		enc = dpblock.PadEncodings(enc, dummyRow, pad)
	}
	if isAlice {
		return smc.RunAlice(query, peer, enc, params.Spec)
	}
	return smc.RunBob(query, peer, enc, params.Spec)
}

// QueryConfig is the querying party's configuration: the classifier and
// the cost budget.
type QueryConfig struct {
	// Schema describes the relations being linked (agreed out of band;
	// the paper assumes private schema matching as a preprocessing step).
	Schema *dataset.Schema
	// QIDs are the classifier's quasi-identifier attribute names.
	QIDs []string
	// Theta is the uniform matching threshold.
	Theta float64
	// AllowanceFraction bounds the SMC budget as a fraction of all
	// record pairs — under DP of the padded pairs, the only ones this
	// party sees; Allowance (absolute pairs) wins when non-zero.
	AllowanceFraction float64
	Allowance         int64
	// Heuristic orders the Unknown pairs; nil = minAvgFirst.
	Heuristic heuristic.Heuristic
	// KeyBits is the Paillier key size (the paper uses 1024).
	KeyBits int
	// Scale is the fixed-point factor for continuous values (default 1).
	Scale int64
	// ShuffleAttributes is ignored: Bob always shuffles a pair's results,
	// so this party never learns which attribute failed.
	//
	// Deprecated: shuffling is unconditional.
	ShuffleAttributes bool
	// Packing names Bob's result encoding. smc.PackingPacked, the zero
	// value, is the only one — the blinded per-attribute outputs slot-packed,
	// several pairs of a run to a ciphertext where the schema-derived slots
	// allow — and any other value is refused. The spec broadcast in
	// MsgParams carries it to the holders.
	Packing smc.Packing
	// SMCWorkers scales the SMC batch size. A distributed session runs
	// one protocol lane per transport, so unlike core.Config.SMCWorkers
	// it cannot shard the crypto; it only keeps deeper pipelines fed so
	// the holders' parallel per-attribute work overlaps across requests.
	// ≤ 0 keeps the default chunking.
	SMCWorkers int
	// Tier, when non-nil, enables the triage tier: the holders publish
	// CLK encodings of their raw records (keyed with a secret the
	// querying party never sees), and Unknown pairs whose Dice similarity
	// is ≤ TierLow are labeled NonMatch without spending SMC allowance —
	// the tier never labels a Match, so every reported match stays exact.
	// A DP holder refuses it (dpblock.ErrTierUnderDP) before publishing
	// its view.
	// Zero-valued M/K/Q select the conventional 1000/30/2.
	// Like the packing mode, the tier knobs are excluded from the journal
	// manifest: a journaled session may resume with the tier switched on,
	// off, or retuned, and replayed purchased verdicts always win.
	Tier *smc.TierParams
	// TierLow is the tier's Dice threshold (≤ TierLow labels NonMatch);
	// zero selects bloom.DefaultTierLow (0.90).
	TierLow float64
	// Journal, when set, receives the run manifest and one record per
	// resolved SMC pair, making the session crash-resumable: a writer from
	// journal.Create records a fresh run, one from Resume additionally
	// replays the interrupted run's verdicts so the querying party never
	// re-spends allowance on pairs already purchased. Nil disables
	// journaling.
	Journal journal.Sink
	// Context, when set, is polled between SMC batches. On cancellation
	// the querying party finishes the in-flight batch, syncs the journal,
	// closes the holder sessions, and returns an error wrapping
	// ErrInterrupted. Nil means the session cannot be interrupted.
	Context context.Context
}

// QueryResult is what the querying party learns.
type QueryResult struct {
	// Matches are the linked record pairs, as (Alice record index, Bob
	// record index) handles into the holders' relations.
	Matches []match.Pair
	// BlockingEfficiency, TotalPairs, UnknownPairs summarize the
	// blocking step.
	BlockingEfficiency float64
	TotalPairs         int64
	UnknownPairs       int64
	// Invocations and Allowance account for the SMC step. Invocations
	// counts only live protocol comparisons, so a resumed session reports
	// Invocations + Resume.ReplayedAllowance ≤ Allowance.
	Invocations int64
	Allowance   int64
	// Resume accounts for verdicts stitched in from a durable journal
	// when the session continued an interrupted one; zero for fresh runs.
	Resume metrics.ResumeStats
	// TierNonMatchedPairs and TierUncertainPairs account for the triage
	// tier: how many Unknown pairs it labeled NonMatch for free — the
	// bound on what it can have cost in recall — and how many it passed on
	// to compete for the allowance. Both zero when the tier is off.
	TierNonMatchedPairs int64
	TierUncertainPairs  int64
	// AliceView and BobView are the published views (K, method,
	// sequence counts — everything this party may inspect). Under DP they
	// carry the releases' ε and δ (composed, the run's is their sum) and
	// are padded (dpblock.Pad): dummies arrive as ordinary handles this
	// party cannot tell from records — their comparisons spend allowance at
	// unit price like any other pair, and Matches are handle pairs the
	// holders translate back through their private PadMaps.
	AliceView, BobView *anonymize.Result
}

// RunQuery executes the querying party: broadcast parameters, collect
// views, block, run the budgeted SMC step, and return the matches.
func RunQuery(alice, bob smc.Conn, cfg QueryConfig) (*QueryResult, error) {
	if cfg.Schema == nil || len(cfg.QIDs) == 0 {
		return nil, fmt.Errorf("session: query needs a schema and QIDs")
	}
	if cfg.Packing != smc.PackingPacked {
		return nil, fmt.Errorf("session: result encoding %d is not spoken here: the only one is packed (%d)", cfg.Packing, smc.PackingPacked)
	}
	if cfg.Heuristic == nil {
		cfg.Heuristic = heuristic.MinAvgFirst{}
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 1024
	}
	qids, err := cfg.Schema.Resolve(cfg.QIDs)
	if err != nil {
		return nil, err
	}
	rule, err := blocking.UniformRule(distance.MetricsFor(cfg.Schema, qids), cfg.Theta)
	if err != nil {
		return nil, err
	}
	spec, err := smc.SpecFromRule(rule, cfg.Scale)
	if err != nil {
		return nil, err
	}
	spec.BoundBySchema(cfg.Schema, qids)
	if cfg.Tier != nil {
		bloom.TierDefaults(&cfg.Tier.M, &cfg.Tier.K, &cfg.Tier.Q)
		if err := bloom.TierLow(&cfg.TierLow); err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
	}

	params := &smc.Message{Kind: smc.MsgParams, QIDs: cfg.QIDs, Spec: spec, Tier: cfg.Tier}
	if err := alice.Send(params); err != nil {
		return nil, fmt.Errorf("session: sending parameters to alice: %w", err)
	}
	if err := bob.Send(params); err != nil {
		return nil, fmt.Errorf("session: sending parameters to bob: %w", err)
	}

	aView, aRaw, err := receiveView(alice, cfg.Schema)
	if err != nil {
		return nil, fmt.Errorf("session: alice's view: %w", err)
	}
	var aFilters, bFilters []*bloom.Filter
	if cfg.Tier != nil {
		if aFilters, err = receiveEncodings(alice, cfg.Tier.M, len(aView.ClassOf)); err != nil {
			return nil, fmt.Errorf("session: alice's tier encodings: %w", err)
		}
	}
	bView, bRaw, err := receiveView(bob, cfg.Schema)
	if err != nil {
		return nil, fmt.Errorf("session: bob's view: %w", err)
	}
	if cfg.Tier != nil {
		if bFilters, err = receiveEncodings(bob, cfg.Tier.M, len(bView.ClassOf)); err != nil {
			return nil, fmt.Errorf("session: bob's tier encodings: %w", err)
		}
	}

	// Both holders must agree on the blocking mode: index.Block refuses a
	// DP release on one side only.
	block, err := index.Block(aView, bView, rule)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	res := &QueryResult{
		BlockingEfficiency: block.Efficiency(),
		TotalPairs:         block.TotalPairs(),
		UnknownPairs:       block.UnknownPairs,
		AliceView:          aView,
		BobView:            bView,
	}
	// Pairs certain from blocking alone, in (RI, SI) order: EachLabeled
	// is map-ordered, and Matches must not vary from run to run.
	var certain [][2]int
	block.EachLabeled(func(ri, si int, l blocking.Label) {
		if l == blocking.Match {
			certain = append(certain, [2]int{ri, si})
		}
	})
	slices.SortFunc(certain, func(x, y [2]int) int { return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1])) })
	for _, c := range certain {
		for _, i := range aView.Classes[c[0]].Members {
			for _, j := range bView.Classes[c[1]].Members {
				res.Matches = append(res.Matches, match.Pair{I: i, J: j})
			}
		}
	}

	allowance := cfg.Allowance
	if allowance == 0 {
		allowance = int64(cfg.AllowanceFraction * float64(block.TotalPairs()))
	}
	res.Allowance = allowance

	// Declare the run to the journal before the Paillier handshake: a
	// fresh journal persists the manifest, a resumed one validates it
	// (refusing a run whose classifier or views changed) and hands back
	// the verdicts already purchased by the interrupted run.
	var journaled []journal.Verdict
	if cfg.Journal != nil {
		if journaled, err = cfg.Journal.Begin(queryManifest(&cfg, block, allowance, aRaw, bRaw)); err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
	}

	sess, err := smc.NewQuerySession(alice, bob, spec, cfg.KeyBits)
	if err != nil {
		return nil, err
	}
	ordered := heuristic.Order(block, rule, cfg.Heuristic, false)
	var tier func(i, j int) bool
	if cfg.Tier != nil {
		tier = func(i, j int) bool { return aFilters[i].Dice(bFilters[j]) <= cfg.TierLow }
	}
	// The resolution kernel (DESIGN.md §16) spends the budget over the
	// published views' member lists. Under DP the holders have already
	// padded those lists, so a dummy comparison is an ordinary unit-price
	// pair here — as it is on every shape — and which purchases paid for
	// padding only the holders know.
	uncertain, err := resolve.Run(resolve.Input{
		Groups: len(ordered),
		Group: func(k int) resolve.Group {
			gp := ordered[k]
			return resolve.Group{A: aView.Classes[gp.RI].Members, B: bView.Classes[gp.SI].Members}
		},
		Budget:     allowance,
		Journaled:  journaled,
		Tier:       tier,
		Comparator: sess,
		Workers:    cfg.SMCWorkers,
		Journal:    cfg.Journal,
		Context:    cfg.Context,
		Sink: func(ev resolve.Event) {
			switch ev.Kind {
			case resolve.Replayed:
				res.Resume.ResumedPairs++
				res.Resume.ReplayedAllowance++
			case resolve.Tiered:
				res.TierNonMatchedPairs++
				return
			}
			for x, j := range ev.Js {
				if ev.Verdicts[x] {
					res.Matches = append(res.Matches, match.Pair{I: ev.I, J: j})
				}
			}
		},
	})
	if err != nil {
		if errors.Is(err, ErrInterrupted) {
			// The journal is synced; closing the session tells the holders
			// to shut down cleanly.
			sess.Close()
		}
		return nil, fmt.Errorf("session: %w", err)
	}
	res.TierUncertainPairs = uncertain
	res.Invocations = sess.Invocations()
	if err := sess.Close(); err != nil {
		return nil, fmt.Errorf("session: closing: %w", err)
	}
	return res, nil
}

// receiveEncodings collects a holder's CLK filters for the triage tier,
// validating the count against the published view and every filter's
// shape against the broadcast parameters.
func receiveEncodings(conn smc.Conn, m, records int) ([]*bloom.Filter, error) {
	msg, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	if msg.Kind != smc.MsgEncodings {
		return nil, fmt.Errorf("expected tier encodings, got kind %d", msg.Kind)
	}
	if len(msg.Encodings) != records {
		return nil, fmt.Errorf("holder sent %d tier encodings for %d records", len(msg.Encodings), records)
	}
	filters := make([]*bloom.Filter, len(msg.Encodings))
	for i, data := range msg.Encodings {
		if filters[i], err = bloom.Unmarshal(data, m); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return filters, nil
}

// receiveView returns the parsed view plus its raw serialized bytes; the
// journal manifest digests the latter.
func receiveView(conn smc.Conn, schema *dataset.Schema) (*anonymize.Result, []byte, error) {
	m, err := conn.Recv()
	if err != nil {
		return nil, nil, err
	}
	if m.Kind != smc.MsgView || len(m.View) == 0 {
		return nil, nil, fmt.Errorf("expected view, got kind %d", m.Kind)
	}
	view, err := anonymize.ReadView(bytes.NewReader(m.View), schema)
	if err != nil {
		return nil, nil, err
	}
	return view, m.View, nil
}
