package dcss

// Slots is the size of the descriptor table.
const Slots = slots

// SlotOf reports the table slot a mark's descriptor is published in.
func SlotOf(mark uint64) uint64 { return mark % slots }

// ParkAfterInstall runs f between every DCSS attempt's installing its
// mark and completing its descriptor, until the returned func is called.
// Set it only while no DCSS runs.
func ParkAfterInstall(f func(w *Word, mark uint64)) (restore func()) {
	afterInstall = f
	return func() { afterInstall = nil }
}
