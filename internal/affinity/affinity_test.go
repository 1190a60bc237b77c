package affinity

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// paperTopology is the topology of the paper's machine: four NUMA zones,
// 24 physical cores per zone, two hyperthreads per core (192 logical
// CPUs), the first hyperthread of every core numbered before any second.
func paperTopology() *Topology {
	t := &Topology{}
	id := 0
	for ht := 0; ht < 2; ht++ {
		for node := 0; node < 4; node++ {
			for core := 0; core < 24; core++ {
				t.CPUs = append(t.CPUs, CPU{ID: id, Core: core, Node: node})
				id++
			}
		}
	}
	return t
}

// nodes counts the logical CPUs of each NUMA node of t.
func nodes(t *Topology) map[int]int {
	n := map[int]int{}
	for _, c := range t.CPUs {
		n[c.Node]++
	}
	return n
}

func TestParseCPUList(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		err  bool
	}{
		{"0", []int{0}, false},
		{"0-3", []int{0, 1, 2, 3}, false},
		{"0-2,5,7-8", []int{0, 1, 2, 5, 7, 8}, false},
		{" 1-2 \n", []int{1, 2}, false},
		{"", nil, true},
		{"3-1", nil, true},
		{"x", nil, true},
		{"1-y", nil, true},
	}
	for _, c := range cases {
		got, err := parseCPUList(c.in)
		if (err != nil) != c.err {
			t.Errorf("parseCPUList(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if !c.err && !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseCPUList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDetectNonEmpty(t *testing.T) {
	topo := Detect()
	if len(topo.CPUs) == 0 {
		t.Fatal("Detect returned no CPUs")
	}
	if len(nodes(topo)) == 0 {
		t.Fatal("Detect returned no NUMA nodes")
	}
}

func TestPaperTopologyShape(t *testing.T) {
	topo := paperTopology()
	if len(topo.CPUs) != 192 {
		t.Fatalf("paper topology has %d CPUs, want 192", len(topo.CPUs))
	}
	perNode := nodes(topo)
	if len(perNode) != 4 {
		t.Fatalf("paper topology has %d nodes, want 4", len(perNode))
	}
	for n, cnt := range perNode {
		if cnt != 48 {
			t.Errorf("node %d has %d hyperthreads, want 48", n, cnt)
		}
	}
}

// The paper's pin order: the first 48 workers all land in NUMA zone 0,
// and hyperthread siblings (same node+core) are adjacent.
func TestPinOrderPaperPolicy(t *testing.T) {
	topo := paperTopology()
	order := PinOrder(topo)
	if len(order) != 192 {
		t.Fatalf("pin order has %d entries, want 192", len(order))
	}
	byID := map[int]CPU{}
	for _, c := range topo.CPUs {
		byID[c.ID] = c
	}
	for i := 0; i < 48; i++ {
		if byID[order[i]].Node != 0 {
			t.Fatalf("worker %d pinned to node %d before zone 0 saturated", i, byID[order[i]].Node)
		}
	}
	for i := 48; i < 96; i++ {
		if byID[order[i]].Node != 1 {
			t.Fatalf("worker %d pinned to node %d, want 1", i, byID[order[i]].Node)
		}
	}
	// SMT pairing: consecutive even/odd workers share a physical core.
	for i := 0; i+1 < len(order); i += 2 {
		a, b := byID[order[i]], byID[order[i+1]]
		if a.Node != b.Node || a.Core != b.Core {
			t.Fatalf("workers %d,%d not on sibling hyperthreads: %+v vs %+v", i, i+1, a, b)
		}
	}
}

func TestPinOrderCoversAllCPUsOnce(t *testing.T) {
	for _, topo := range []*Topology{Detect(), paperTopology()} {
		order := PinOrder(topo)
		if len(order) != len(topo.CPUs) {
			t.Fatalf("pin order length %d != topology size %d", len(order), len(topo.CPUs))
		}
		seen := map[int]bool{}
		for _, id := range order {
			if seen[id] {
				t.Fatalf("CPU %d appears twice in pin order", id)
			}
			seen[id] = true
		}
	}
}

func TestPinWrapsAround(t *testing.T) {
	order := PinOrder(Detect())
	for _, i := range []int{0, 10_000} {
		unpin, err := Pin(order, i)
		unpin()
		t.Logf("Pin(worker %d): %v", i, err)
	}
}

// A CPU no affinity mask can name is an error Pin returns, not one it
// swallows, and the goroutine still gets its OS thread.
func TestPinReportsFailure(t *testing.T) {
	unpin, err := Pin([]int{-1}, 0)
	defer unpin()
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Pin to CPU -1: err = %v, want ErrUnsupported", err)
	}
}

// DetectAt against a synthetic sysfs: 2 packages x 2 cores x 2 SMT.
func TestDetectAtSyntheticSysfs(t *testing.T) {
	root := t.TempDir()
	cpuDir := filepath.Join(root, "devices", "system", "cpu")
	write := func(rel, content string) {
		p := filepath.Join(cpuDir, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("online", "0-7\n")
	for id := 0; id < 8; id++ {
		pkg := id / 4
		core := (id / 2) % 2
		write(fmt.Sprintf("cpu%d/topology/core_id", id), fmt.Sprintf("%d\n", core))
		write(fmt.Sprintf("cpu%d/topology/physical_package_id", id), fmt.Sprintf("%d\n", pkg))
	}
	topo := DetectAt(root)
	if len(topo.CPUs) != 8 {
		t.Fatalf("detected %d CPUs", len(topo.CPUs))
	}
	if n := nodes(topo); len(n) != 2 || n[0] != 4 || n[1] != 4 {
		t.Fatalf("CPUs per node = %v, want 4 on each of nodes 0 and 1", n)
	}
	order := PinOrder(topo)
	// Zone 0 (CPUs 0..3) must be fully pinned before zone 1.
	byID := map[int]CPU{}
	for _, c := range topo.CPUs {
		byID[c.ID] = c
	}
	for i := 0; i < 4; i++ {
		if byID[order[i]].Node != 0 {
			t.Fatalf("worker %d on node %d before node 0 saturated", i, byID[order[i]].Node)
		}
	}
	// SMT pairs adjacent within each node.
	for i := 0; i+1 < len(order); i += 2 {
		a, b := byID[order[i]], byID[order[i+1]]
		if a.Node != b.Node || a.Core != b.Core {
			t.Fatalf("workers %d,%d not SMT siblings: %+v %+v", i, i+1, a, b)
		}
	}
}

// A sysfs missing topology files degrades to flat (node 0, core = id).
func TestDetectAtDegradedSysfs(t *testing.T) {
	root := t.TempDir()
	p := filepath.Join(root, "devices", "system", "cpu")
	if err := os.MkdirAll(p, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(p, "online"), []byte("0-2"), 0o644); err != nil {
		t.Fatal(err)
	}
	topo := DetectAt(root)
	if len(topo.CPUs) != 3 {
		t.Fatalf("CPUs = %d", len(topo.CPUs))
	}
	for i, c := range topo.CPUs {
		if c.Node != 0 || c.Core != i {
			t.Fatalf("degraded cpu %d = %+v", i, c)
		}
	}
}
