package solver

// SetPruning turns dominance pruning on or off for the trackers built
// until the returned func restores the previous setting.
func SetPruning(on bool) (restore func()) {
	old := pruneOff
	pruneOff = !on
	return func() { pruneOff = old }
}

// SetMemo turns the layer memo on or off for the trackers built until
// the returned func restores the previous setting.
func SetMemo(on bool) (restore func()) {
	old := memoOff
	memoOff = !on
	return func() { memoOff = old }
}

// FreshMemo swaps in an empty layer memo until the returned func
// restores the previous one.
func FreshMemo() (restore func()) {
	old := gcache
	gcache = newGMemo(gcacheShards, gcacheMaxFloats)
	return func() { gcache = old }
}

// LayerOf returns the tracker's current layer D_t.
func LayerOf(p *PrefixTracker) []float64 { return p.layer }
