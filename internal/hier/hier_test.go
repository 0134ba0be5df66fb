package hier

import (
	"math"
	"testing"
)

func TestBuildValidation(t *testing.T) {
	tr := New()
	if _, err := tr.AddClass("nope", "a", 1); err == nil {
		t.Error("unknown parent accepted")
	}
	if _, err := tr.AddClass("root", "a", 0); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := tr.AddClass("root", "a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddClass("root", "a", 1); err == nil {
		t.Error("duplicate class accepted")
	}
	if err := tr.Enqueue("a", 100, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.AddClass("a", "a1", 1); err == nil {
		t.Error("added a child under a queueing class")
	}
	if err := tr.Enqueue("root", 100, 0); err == nil {
		t.Error("enqueue at interior class accepted")
	}
	if err := tr.Enqueue("a", 0, 0); err == nil {
		t.Error("zero-size packet accepted")
	}
	if err := tr.Enqueue("zzz", 10, 0); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestEmptyDequeue(t *testing.T) {
	tr := New()
	if _, ok := tr.Dequeue(); ok {
		t.Fatal("dequeued from empty tree")
	}
}

// buildTwoTier creates the canonical link-sharing example:
//
//	root ── org A (weight 3) ── a1 (1), a2 (2)
//	     └─ org B (weight 1) ── b1 (1)
func buildTwoTier(t *testing.T) *Tree {
	t.Helper()
	tr := New()
	mustAdd := func(parent, name string, w float64) {
		if _, err := tr.AddClass(parent, name, w); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd("root", "orgA", 3)
	mustAdd("root", "orgB", 1)
	mustAdd("orgA", "a1", 1)
	mustAdd("orgA", "a2", 2)
	mustAdd("orgB", "b1", 1)
	return tr
}

func shares(t *testing.T, tr *Tree, leaves []string, rounds int) map[string]float64 {
	t.Helper()
	top := func() {
		for _, l := range leaves {
			c := tr.classes[l]
			for c.backlog < 4 {
				if err := tr.Enqueue(l, 100, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	top()
	got := map[string]float64{}
	for i := 0; i < rounds; i++ {
		p, ok := tr.Dequeue()
		if !ok {
			t.Fatal("tree went idle while backlogged")
		}
		got[p.Class.Name()] += float64(p.Size)
		top()
	}
	for k := range got {
		got[k] /= float64(rounds * 100)
	}
	return got
}

func TestHierarchicalShares(t *testing.T) {
	tr := buildTwoTier(t)
	got := shares(t, tr, []string{"a1", "a2", "b1"}, 12000)
	// org A gets 3/4 of the link, split 1:2 inside -> a1=1/4, a2=1/2,
	// b1=1/4.
	want := map[string]float64{"a1": 0.25, "a2": 0.5, "b1": 0.25}
	for k, w := range want {
		if math.Abs(got[k]-w) > 0.02 {
			t.Errorf("%s share = %.3f, want %.3f", k, got[k], w)
		}
	}
}

func TestLinkSharingRedistribution(t *testing.T) {
	// With b1 idle, org A's leaves absorb the whole link at 1:2.
	tr := buildTwoTier(t)
	got := shares(t, tr, []string{"a1", "a2"}, 9000)
	if math.Abs(got["a1"]-1.0/3) > 0.02 || math.Abs(got["a2"]-2.0/3) > 0.02 {
		t.Errorf("idle-sibling redistribution: %v", got)
	}
}

func TestNoBankedCreditAfterIdle(t *testing.T) {
	// b1 idles while org A transmits heavily; when b1 returns it must get
	// its 1/4 share, not a catch-up burst.
	tr := buildTwoTier(t)
	for i := 0; i < 2000; i++ {
		tr.Enqueue("a1", 100, 0)
		tr.Dequeue()
	}
	// b1 wakes up: measure its share over the next window.
	got := shares(t, tr, []string{"a1", "a2", "b1"}, 4000)
	if got["b1"] > 0.30 {
		t.Errorf("b1 burst on banked credit: share %.3f", got["b1"])
	}
	if got["b1"] < 0.20 {
		t.Errorf("b1 under-served after idle: share %.3f", got["b1"])
	}
}

func TestFIFOWithinLeaf(t *testing.T) {
	tr := New()
	tr.AddClass("root", "x", 1)
	for k := 0; k < 10; k++ {
		tr.Enqueue("x", 100, uint64(k))
	}
	prev := int64(-1)
	for {
		p, ok := tr.Dequeue()
		if !ok {
			break
		}
		if int64(p.Arrival) <= prev {
			t.Fatal("leaf not FIFO")
		}
		prev = int64(p.Arrival)
	}
	if tr.Backlogged() != 0 {
		t.Fatal("backlog residue")
	}
}

func TestDeepTreeWalks(t *testing.T) {
	tr := New()
	parent := "root"
	for i := 0; i < 5; i++ {
		name := string(rune('a' + i))
		if _, err := tr.AddClass(parent, name, 1); err != nil {
			t.Fatal(err)
		}
		parent = name
	}
	if got := tr.Walks(); got != 5 {
		t.Fatalf("Walks = %d, want 5", got)
	}
	tr.Enqueue("e", 10, 0)
	p, ok := tr.Dequeue()
	if !ok || p.Class.Name() != "e" {
		t.Fatal("deep leaf not served")
	}
}

func TestAccessors(t *testing.T) {
	tr := buildTwoTier(t)
	if tr.root.Name() != "root" || tr.root.Leaf() {
		t.Error("root accessors")
	}
	if c := tr.classes["orgA"]; c.weight != 3 || c.Leaf() {
		t.Error("class accessors")
	}
}

// BenchmarkDequeue prices the tree walk per decision (the §4.1 argument:
// hierarchical software schedulers cost more per decision).
func BenchmarkDequeue(b *testing.B) {
	tr := New()
	// 4 orgs × 8 leaves.
	for o := 0; o < 4; o++ {
		org := "org" + string(rune('0'+o))
		if _, err := tr.AddClass("root", org, float64(o+1)); err != nil {
			b.Fatal(err)
		}
		for l := 0; l < 8; l++ {
			leaf := org + "leaf" + string(rune('0'+l))
			if _, err := tr.AddClass(org, leaf, 1); err != nil {
				b.Fatal(err)
			}
			for k := 0; k < 4; k++ {
				if err := tr.Enqueue(leaf, 100, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, ok := tr.Dequeue()
		if !ok {
			b.Fatal("idle")
		}
		if err := tr.Enqueue(p.Class.Name(), p.Size, p.Arrival); err != nil {
			b.Fatal(err)
		}
	}
}
