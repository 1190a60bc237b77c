// Package affinity pins benchmark goroutines to CPUs and reproduces the
// paper's pinning policy: saturate one NUMA zone before starting the
// next, and within a zone place each pair of hyperthreads on their shared
// physical core consecutively. Topology is read from /sys on Linux; on
// other platforms (or restricted containers) pinning degrades to
// runtime.LockOSThread only, and Pin returns the error that says so.
package affinity

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// ErrUnsupported indicates the host cannot set CPU affinity.
var ErrUnsupported = errors.New("affinity: not supported on this platform")

// CPU describes one logical CPU.
type CPU struct {
	ID   int // logical CPU number
	Core int // physical core id within the package
	Node int // NUMA node
}

// Topology is the set of online logical CPUs.
type Topology struct {
	CPUs []CPU
}

// Detect reads the host topology from /sys. When /sys is unavailable it
// returns a flat topology: one node, one core per logical CPU — which
// keeps the pin order well-defined everywhere.
func Detect() *Topology { return DetectAt("/sys") }

// DetectAt reads the topology from an alternative sysfs root (tests use
// a synthetic tree).
func DetectAt(sysRoot string) *Topology {
	n := runtime.NumCPU()
	online, err := parseCPUList(readSys(sysRoot + "/devices/system/cpu/online"))
	if err != nil || len(online) == 0 {
		online = make([]int, n)
		for i := range online {
			online[i] = i
		}
	}
	t := &Topology{}
	for _, id := range online {
		base := fmt.Sprintf("%s/devices/system/cpu/cpu%d/topology/", sysRoot, id)
		core := atoiDefault(readSys(base+"core_id"), id)
		node := atoiDefault(readSys(base+"physical_package_id"), 0)
		t.CPUs = append(t.CPUs, CPU{ID: id, Core: core, Node: node})
	}
	return t
}

// PinOrder returns logical CPU ids in the paper's pin order: fill a NUMA
// zone completely (each core's hyperthreads consecutively) before moving
// to the next zone.
func PinOrder(t *Topology) []int {
	cpus := slices.Clone(t.CPUs)
	slices.SortFunc(cpus, func(a, b CPU) int {
		return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Core, b.Core), cmp.Compare(a.ID, b.ID))
	})
	order := make([]int, len(cpus))
	for i, c := range cpus {
		order[i] = c.ID
	}
	return order
}

// Pin locks the calling goroutine to its OS thread and binds that thread
// to the CPU order assigns worker i (wrapping around past its end). The
// caller runs unpin when done, whatever err is: a pinning failure is not
// fatal, the worker just runs unpinned.
func Pin(order []int, i int) (unpin func(), err error) {
	runtime.LockOSThread()
	return runtime.UnlockOSThread, setAffinity(order[i%len(order)])
}

func readSys(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func atoiDefault(s string, def int) int {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return def
	}
	return v
}

// parseCPUList parses the kernel's cpulist format, e.g. "0-3,8,10-11".
func parseCPUList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, errors.New("empty cpu list")
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil, err
			}
			b, err := strconv.Atoi(hi)
			if err != nil {
				return nil, err
			}
			if b < a {
				return nil, fmt.Errorf("invalid range %q", part)
			}
			for v := a; v <= b; v++ {
				out = append(out, v)
			}
		} else {
			v, err := strconv.Atoi(part)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}
