package hier

import (
	"testing"

	"repro/internal/fairqueue"
)

// TestFlatTreeMatchesWFQShares differentially tests the hierarchy against
// package fairqueue: a single-level tree is plain WFQ, so long-run byte
// shares must agree between the two independent implementations.
func TestFlatTreeMatchesWFQShares(t *testing.T) {
	weights := []float64{1, 2, 3, 4}

	tr := New()
	for i, w := range weights {
		if _, err := tr.AddClass("root", leafName(i), w); err != nil {
			t.Fatal(err)
		}
	}
	wfq, err := fairqueue.NewWFQ(weights)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 20000
	treeBytes := make([]float64, len(weights))
	wfqBytes := make([]float64, len(weights))

	topTree := func() {
		for i := range weights {
			c := tr.classes[leafName(i)]
			for c.backlog < 4 {
				if err := tr.Enqueue(leafName(i), 100, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	topWFQ := func() {
		for i := range weights {
			// Keep ≥4 queued per stream.
			for n := 0; n < 4; n++ {
				if err := wfq.Enqueue(fairqueue.Packet{Stream: i, Size: 100}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	topTree()
	topWFQ()
	for r := 0; r < rounds; r++ {
		p1, ok := tr.Dequeue()
		if !ok {
			t.Fatal("tree idle")
		}
		treeBytes[indexOf(p1.Class.Name())] += float64(p1.Size)
		p2, ok := wfq.Dequeue()
		if !ok {
			t.Fatal("wfq idle")
		}
		wfqBytes[p2.Stream] += float64(p2.Size)
		if r%4 == 3 {
			topTree()
			topWFQ()
		}
	}
	var tTot, wTot float64
	for i := range weights {
		tTot += treeBytes[i]
		wTot += wfqBytes[i]
	}
	for i := range weights {
		ts := treeBytes[i] / tTot
		ws := wfqBytes[i] / wTot
		if diff := ts - ws; diff > 0.02 || diff < -0.02 {
			t.Errorf("stream %d: tree share %.3f vs WFQ share %.3f", i, ts, ws)
		}
	}
}

func leafName(i int) string { return "leaf" + string(rune('0'+i)) }

func indexOf(name string) int { return int(name[len(name)-1] - '0') }
