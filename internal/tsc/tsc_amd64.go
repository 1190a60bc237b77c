//go:build amd64

package tsc

// Assembly routines (tsc_amd64.s).
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func rdtscpFenced() uint64
func rdtscCPUID() uint64
func rdtscRaw() uint64
func rdtscpRaw() uint64

var (
	hasRDTSCP    bool
	hasInvariant bool
	trusted      bool // hasRDTSCP && hasInvariant: Supported
)

func init() {
	maxExt, _, _, _ := cpuidAsm(0x80000000, 0)
	if maxExt >= 0x80000001 {
		_, _, _, edx := cpuidAsm(0x80000001, 0)
		hasRDTSCP = edx&(1<<27) != 0
	}
	if maxExt >= 0x80000007 {
		_, _, _, edx := cpuidAsm(0x80000007, 0)
		hasInvariant = edx&(1<<8) != 0
	}
	trusted = hasRDTSCP && hasInvariant
}

func supported() bool { return trusted }
func invariant() bool { return hasInvariant }

func readFenced() uint64 {
	if trusted {
		return rdtscpFenced()
	}
	return Monotonic()
}

func readCPUID() uint64 { return rdtscCPUID() }

func read() uint64 { return rdtscRaw() }

func readP() uint64 {
	if hasRDTSCP {
		return rdtscpRaw()
	}
	return rdtscRaw()
}
