package cliutil

import (
	"fmt"
	"strings"

	"pprl/internal/anonymize"
	"pprl/internal/core"
	"pprl/internal/heuristic"
)

// HeuristicByName resolves an SMC selection heuristic from its
// case-insensitive CLI/API name.
func HeuristicByName(name string) (heuristic.Heuristic, error) {
	switch strings.ToLower(name) {
	case "minfirst":
		return heuristic.MinFirst{}, nil
	case "maxlast":
		return heuristic.MaxLast{}, nil
	case "", "minavgfirst":
		return heuristic.MinAvgFirst{}, nil
	default:
		return nil, fmt.Errorf("unknown heuristic %q (want minFirst, maxLast, or minAvgFirst)", name)
	}
}

// StrategyByName resolves a residual-labeling strategy from its
// case-insensitive CLI/API name.
func StrategyByName(name string) (core.Strategy, error) {
	switch strings.ToLower(name) {
	case "", "precision":
		return core.MaximizePrecision, nil
	case "recall":
		return core.MaximizeRecall, nil
	case "classifier":
		return core.TrainClassifier, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want precision, recall, or classifier)", name)
	}
}

// TierModeByName resolves the triage-tier mode from its
// case-insensitive CLI/API name.
func TierModeByName(name string) (core.TierMode, error) {
	switch strings.ToLower(name) {
	case "", "off":
		return core.TierOff, nil
	case "bloom":
		return core.TierBloom, nil
	default:
		return 0, fmt.Errorf("unknown tier mode %q (want off or bloom)", name)
	}
}

// AnonymizerByName resolves a k-anonymization method from its
// case-insensitive CLI/API name. The DP binner is not resolvable here —
// it needs the ε parameters, so surfaces accepting "dp" route it
// through Config.Epsilon (see IsDPName) before falling back to this.
func AnonymizerByName(name string) (anonymize.Anonymizer, error) {
	switch strings.ToLower(name) {
	case "", "entropy":
		return anonymize.NewMaxEntropy(), nil
	case "tds":
		return anonymize.NewTDS(), nil
	case "datafly":
		return anonymize.NewDataFly(), nil
	case "mondrian":
		return anonymize.NewMondrian(), nil
	default:
		return nil, fmt.Errorf("unknown anonymization method %q (want entropy, tds, datafly, mondrian, or dp with -epsilon)", name)
	}
}

// IsDPName reports whether the method name selects the differentially
// private blocking mode.
func IsDPName(name string) bool { return strings.EqualFold(name, "dp") }
