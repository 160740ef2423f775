package metrics

import "encoding/json"

// The wire forms pin stable snake_case field names for the HTTP API and
// machine-readable CLI output (the struct tags on Confusion and
// ResumeStats); renaming a Go field must not silently rename a JSON field
// consumers depend on.

// MarshalJSON writes the counts plus the derived precision, recall and
// F1, for consumers that plot without recomputing. Input reads the counts
// alone and ignores the rates: they are always derivable.
func (c Confusion) MarshalJSON() ([]byte, error) {
	type counts Confusion // the tagged fields, without this method
	return json.Marshal(struct {
		counts
		Precision float64 `json:"precision"`
		Recall    float64 `json:"recall"`
		F1        float64 `json:"f1"`
	}{counts(c), c.Precision(), c.Recall(), c.F1()})
}
