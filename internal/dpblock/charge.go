package dpblock

// DummyCharger spreads a candidate bin pair's dummy comparisons across
// its real ones deterministically: after the k-th real purchase exactly
// floor(k·extra/real) dummy comparisons have been charged, so by the
// time the group is exhausted the full ñ_A·ñ_B cost has been paid. A
// faithful deployment cannot distinguish dummies from real records and
// pays for them interleaved; modeling the charge proportionally (rather
// than all-up-front or all-at-the-end) keeps a partially afforded group
// honest and keeps resumed runs — which replay some purchases from the
// journal — spending exactly what the uninterrupted run would have.
type DummyCharger struct {
	real, extra     int64
	bought, charged int64
}

// NewDummyCharger sizes a charger from a candidate bin pair's real-pair
// count and the dummy-pair excess still unpaid on it: all of
// ñ_A·ñ_B − n_A·n_B in a frozen run, while the incremental engine passes
// each batch's new real pairs and only the excess they added over what
// earlier batches paid, so the per-batch charges telescope to the frozen
// run's dummy spend.
func NewDummyCharger(realPairs, excess int64) DummyCharger {
	return DummyCharger{real: realPairs, extra: excess}
}

// Next advances one real purchase and returns the dummy comparisons to
// charge along with it.
func (c *DummyCharger) Next() int64 {
	c.bought++
	want := c.extra * c.bought / c.real
	d := want - c.charged
	c.charged = want
	return d
}

// Charged returns the dummy comparisons charged so far.
func (c *DummyCharger) Charged() int64 { return c.charged }
