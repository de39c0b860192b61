package system

import "testing"

func TestLossModelsCoverAnalyticGrid(t *testing.T) {
	optical := 0
	for _, n := range Interconnects {
		if n.Loss == nil {
			continue
		}
		optical++
		for _, nodes := range []int{16, 64, 256} {
			r := n.Loss(nodes)
			if r.Topology != string(n.Kind) || r.Nodes != nodes {
				t.Fatalf("%s loss report mislabeled: %q @ %d", n.Kind, r.Topology, r.Nodes)
			}
			if r.WorstCaseDB <= 0 || r.EnergyPerBitJ <= 0 {
				t.Fatalf("%s@%d: loss model did not close: %+v", n.Kind, nodes, r)
			}
		}
	}
	if optical != 4 {
		t.Fatalf("%d interconnects have a loss model, want the four optical ones", optical)
	}
}

func TestMeshDim(t *testing.T) {
	for nodes, want := range map[int]int{16: 4, 64: 8, 256: 16, 1024: 32} {
		d, err := MeshDim(nodes)
		if err != nil || d != want {
			t.Fatalf("MeshDim(%d) = %d, %v; want %d", nodes, d, err, want)
		}
	}
	if _, err := MeshDim(48); err == nil {
		t.Fatal("non-square node count must error")
	}
}
