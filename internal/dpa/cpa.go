package dpa

// CPA implements correlation power analysis — the natural strengthening of
// the difference-of-means DPA the paper defends against (its "higher-order
// power analysis techniques" that defeat naive countermeasures like random
// noise injection): instead of partitioning on one predicted bit, the
// attacker correlates the full Hamming weight of the predicted round-1
// S-box output against the trace at every cycle. Against the dual-rail
// masked system the predicted power model has zero covariance with the
// (data-independent) trace, so CPA collapses exactly like DPA.

// CorrelationTrace returns the per-cycle Pearson correlation between the
// Hamming weight of the predicted S-box output (for one sub-key guess) and
// the measured energy. It is the one-guess view of the class-table core.
func CorrelationTrace(ts *TraceSet, box int, guess uint32) []float64 {
	if ts.Len() == 0 || ts.Window.Len() <= 0 {
		return nil
	}
	out, _ := guessTrace(ts, StatCPA, box, -1, guess)
	return out
}

// CPAAttackSBox scores every 6-bit sub-key guess of one S-box by its peak
// absolute correlation.
func CPAAttackSBox(ts *TraceSet, box int) BoxResult {
	return desTable(ts, StatCPA).attackBox(ts.Plaintexts, box, -1)
}

// CPAAttackAll attacks all eight S-boxes with the correlation distinguisher.
func CPAAttackAll(ts *TraceSet) [8]BoxResult { return attackAll(ts, StatCPA, -1) }
