package numeric

import (
	"testing"
	"testing/quick"
)

func TestIntVectorBasics(t *testing.T) {
	v := IntVector{1, 2, 3}
	if v.Sum() != 6 {
		t.Errorf("Sum = %d", v.Sum())
	}
	w := v.Clone()
	w[0] = 9
	if v[0] != 1 {
		t.Fatal("Clone aliases storage")
	}
	if !v.Equal(IntVector{1, 2, 3}) {
		t.Fatal("Equal false negative")
	}
	if v.Equal(IntVector{1, 2}) || v.Equal(IntVector{1, 2, 4}) {
		t.Fatal("Equal false positive")
	}
}

func TestIntVectorPredicates(t *testing.T) {
	if !(IntVector{0, 1}).AllNonNegative() {
		t.Error("AllNonNegative false negative")
	}
	if (IntVector{0, -1}).AllNonNegative() {
		t.Error("AllNonNegative false positive")
	}
}

func TestIntVectorKey(t *testing.T) {
	if got := (IntVector{1, -2, 30}).Key(); got != "1,-2,30" {
		t.Errorf("Key = %q", got)
	}
	if got := (IntVector{}).Key(); got != "" {
		t.Errorf("empty Key = %q", got)
	}
	if got := (IntVector{5}).String(); got != "(5)" {
		t.Errorf("String = %q", got)
	}
}

func TestKeyUniquenessProperty(t *testing.T) {
	f := func(a, b []int8) bool {
		va := make(IntVector, len(a))
		vb := make(IntVector, len(b))
		for i, x := range a {
			va[i] = int(x)
		}
		for i, x := range b {
			vb[i] = int(x)
		}
		if va.Equal(vb) {
			return va.Key() == vb.Key()
		}
		return va.Key() != vb.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatticeSize(t *testing.T) {
	n, err := LatticeSize(IntVector{2, 3}, 1000)
	if err != nil || n != 12 {
		t.Errorf("LatticeSize = %d, %v; want 12", n, err)
	}
	if _, err := LatticeSize(IntVector{-1}, 1000); err == nil {
		t.Error("expected error for negative bound")
	}
	if _, err := LatticeSize(IntVector{1000, 1000, 1000}, 1e6); err == nil {
		t.Error("expected budget error")
	}
}

func TestLatticeWalkOrderAndCount(t *testing.T) {
	bound := IntVector{2, 1, 2}
	seen := map[string]bool{}
	count := 0
	LatticeWalk(bound, func(p IntVector) {
		count++
		key := p.Key()
		if seen[key] {
			t.Fatalf("point %v visited twice", p)
		}
		seen[key] = true
		// Dominance order: every p - e_k must already be visited.
		for k := range p {
			if p[k] > 0 {
				q := p.Clone()
				q[k]--
				if !seen[q.Key()] {
					t.Fatalf("point %v visited before dominated %v", p, q)
				}
			}
		}
	})
	if want := 3 * 2 * 3; count != want {
		t.Errorf("visited %d points, want %d", count, want)
	}
}

func TestLatticeIndexBijective(t *testing.T) {
	bound := IntVector{3, 2, 4}
	seen := map[int]bool{}
	LatticeWalk(bound, func(p IntVector) {
		idx := LatticeIndex(p, bound)
		if idx < 0 || seen[idx] {
			t.Fatalf("index %d for %v duplicated or negative", idx, p)
		}
		seen[idx] = true
	})
	size, _ := LatticeSize(bound, 1<<20)
	if len(seen) != size {
		t.Errorf("indices cover %d points, want %d", len(seen), size)
	}
}

func TestCompositionsCount(t *testing.T) {
	cases := []struct{ total, bins, want int }{
		{0, 0, 1},
		{1, 0, 0},
		{0, 3, 1},
		{2, 2, 3},
		{3, 3, 10},
		{5, 4, 56},
	}
	for _, c := range cases {
		if got := CompositionsCount(c.total, c.bins); got != c.want {
			t.Errorf("CompositionsCount(%d,%d) = %d, want %d", c.total, c.bins, got, c.want)
		}
	}
}

func TestCompositionsEnumerationMatchesCount(t *testing.T) {
	for total := 0; total <= 5; total++ {
		for bins := 0; bins <= 4; bins++ {
			n := 0
			Compositions(total, bins, func(c IntVector) {
				if c.Sum() != total {
					t.Fatalf("composition %v does not sum to %d", c, total)
				}
				if !c.AllNonNegative() {
					t.Fatalf("negative composition %v", c)
				}
				n++
			})
			if want := CompositionsCount(total, bins); n != want {
				t.Errorf("Compositions(%d,%d) yields %d, want %d", total, bins, n, want)
			}
		}
	}
}
