package plan_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/plan"
)

func TestBitsetBasics(t *testing.T) {
	b := plan.NewBitset(130)
	if !b.Empty() {
		t.Fatal("new bitset not empty")
	}
	for _, id := range []plan.OpID{0, 63, 64, 127, 129} {
		b.Set(id)
	}
	if b.Count() != 5 {
		t.Fatalf("count = %d, want 5", b.Count())
	}
	if !b.Has(64) || b.Has(65) {
		t.Fatal("Has wrong")
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 4 {
		t.Fatal("Clear wrong")
	}
	ids := b.IDs()
	want := []plan.OpID{0, 63, 127, 129}
	if len(ids) != len(want) {
		t.Fatalf("IDs = %v, want %v", ids, want)
	}
	for i := range ids {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	if got := b.String(); got != "{0,63,127,129}" {
		t.Errorf("String = %q", got)
	}
	for _, c := range [][2]plan.OpID{{-3, 0}, {0, 0}, {1, 63}, {63, 63}, {64, 127}, {128, 129}, {130, -1}, {500, -1}} {
		if got := b.Next(c[0]); got != c[1] {
			t.Errorf("Next(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestBitsetUnionIntersect(t *testing.T) {
	a := plan.NewBitset(64)
	b := plan.NewBitset(64)
	a.Set(1)
	a.Set(5)
	b.Set(5)
	b.Set(9)
	if !a.Intersects(b) {
		t.Fatal("expected intersection")
	}
	u := a.Union(b)
	if u.Count() != 3 {
		t.Fatalf("union count = %d, want 3", u.Count())
	}
	if !a.Has(1) || a.Has(9) {
		t.Fatal("Union mutated receiver")
	}
	c := plan.NewBitset(64)
	c.Set(2)
	if a.Intersects(c) {
		t.Fatal("unexpected intersection")
	}
}

func TestBitsetEqualClone(t *testing.T) {
	a := plan.NewBitset(100)
	a.Set(42)
	c := a.Clone()
	if !a.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(43)
	if a.Equal(c) {
		t.Fatal("clone aliases original")
	}
	if a.Equal(plan.NewBitset(30)) {
		t.Fatal("different capacities reported equal")
	}
}

// TestBitsetQuickSetHas property: after setting an arbitrary subset, Has
// answers membership exactly and IDs returns the sorted members.
func TestBitsetQuickSetHas(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%120 + 1
		rng := rand.New(rand.NewSource(seed))
		b := plan.NewBitset(n)
		want := map[plan.OpID]bool{}
		for i := 0; i < n/2; i++ {
			id := plan.OpID(rng.Intn(n))
			b.Set(id)
			want[id] = true
		}
		for i := 0; i < n; i++ {
			if b.Has(plan.OpID(i)) != want[plan.OpID(i)] {
				return false
			}
		}
		ids := b.IDs()
		if len(ids) != len(want) {
			return false
		}
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBitsetQuickUnion property: union membership is the logical OR of the
// inputs.
func TestBitsetQuickUnion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 96
		a, b := plan.NewBitset(n), plan.NewBitset(n)
		for i := 0; i < 30; i++ {
			a.Set(plan.OpID(rng.Intn(n)))
			b.Set(plan.OpID(rng.Intn(n)))
		}
		u := a.Union(b)
		for i := 0; i < n; i++ {
			id := plan.OpID(i)
			if u.Has(id) != (a.Has(id) || b.Has(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
