// Package cliutil holds what the command-line tools and the job service
// share: the run's parameter block (Params: one validator, one set of
// defaults, the engine configurations made from it), the flags that fill
// it, and small helpers (name tables, ranges, addresses, dial backoff).
package cliutil

import (
	"pprl/internal/adult"
	"pprl/internal/dataset"
)

// LoadSchemaOrAdult loads a schema manifest, or returns the built-in
// Adult schema when path is empty.
func LoadSchemaOrAdult(path string) (*dataset.Schema, error) {
	if path == "" {
		return adult.Schema(), nil
	}
	return dataset.LoadSchema(path)
}
