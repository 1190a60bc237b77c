package dcss_test

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"tscds/internal/dcss"
	"tscds/internal/ebrrq"
)

// A Word is its value alone, so an EBR-RQ label costs a node 8 bytes.
func TestWordIsOneWord(t *testing.T) {
	if got := unsafe.Sizeof(dcss.Word{}); got != 8 {
		t.Errorf("unsafe.Sizeof(dcss.Word{}) = %d, want 8", got)
	}
	if got := unsafe.Sizeof(ebrrq.Label{}); got != 8 {
		t.Errorf("unsafe.Sizeof(ebrrq.Label{}) = %d, want 8", got)
	}
}

// An owner parked between installing its mark and completing loses its
// table slot to a later attempt on another word, itself parked. A reader
// of the owner's word must not take that attempt's descriptor for the
// owner's: it waits until the owner, once released, resolves the word, and
// reads the owner's decided value.
func TestHelperOutwaitsReusedSlot(t *testing.T) {
	var guard atomic.Uint64
	guard.Store(1)
	var parked dcss.Word
	parked.Store(10)
	others := make([]dcss.Word, dcss.Slots+8)

	type stop struct {
		mark    uint64
		release chan struct{}
	}
	stops := make(chan stop, 2)
	var ownerMark atomic.Uint64
	restore := dcss.ParkAfterInstall(func(w *dcss.Word, mark uint64) {
		if w == &parked || dcss.SlotOf(mark) == dcss.SlotOf(ownerMark.Load()) {
			s := stop{mark, make(chan struct{})}
			stops <- s
			<-s.release
		}
	})
	defer restore()

	ownerOK := make(chan bool, 1)
	go func() {
		_, ok := parked.DCSS(&guard, 1, 10, 20)
		ownerOK <- ok
	}()
	owner := <-stops
	ownerMark.Store(owner.mark)

	// More attempts than the table has slots: one of them reuses the
	// owner's slot and parks there.
	othersDone := make(chan struct{})
	go func() {
		defer close(othersDone)
		for i := range others {
			others[i].DCSS(&guard, 1, 0, uint64(1000+i))
		}
	}()
	reuser := <-stops
	if dcss.SlotOf(reuser.mark) != dcss.SlotOf(owner.mark) || reuser.mark == owner.mark {
		t.Fatalf("reuser mark %#x, owner mark %#x: want another mark in the same slot", reuser.mark, owner.mark)
	}

	read := make(chan uint64, 1)
	go func() { read <- parked.Read() }()
	select {
	case v := <-read:
		t.Fatalf("Read returned %d while the owner was parked on its mark", v)
	case <-time.After(20 * time.Millisecond):
	}
	close(owner.release)
	ok := <-ownerOK
	want := uint64(10)
	if ok {
		want = 20
	}
	if got := <-read; got != want {
		t.Fatalf("Read = %d, want the owner's decided value %d (DCSS ok = %v)", got, want, ok)
	}
	close(reuser.release)
	<-othersDone
	for i := range others {
		if got := others[i].Read(); got != uint64(1000+i) {
			t.Fatalf("others[%d] = %d, want %d", i, got, 1000+i)
		}
	}
}
