package lfbst

// parkAfterLoad runs f in every helper between loading the fields of the
// attempt that wrote word w and re-checking its slot's sequence, until the
// returned func is called. Set it only while no update runs.
func parkAfterLoad(f func(w uint64)) (restore func()) {
	afterLoad = f
	return func() { afterLoad = nil }
}
