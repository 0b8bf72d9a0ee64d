package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestFootTableMatchesMap checks the footprint table against the map it
// replaced: over many prunes of random keys, every key gets the group number
// a map numbering keys in first-seen order gives it, and the table is the
// smallest power of two of at least 16 slots that keeps the most groups any
// prune formed at no more than half of it.
func TestFootTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ft core.FootTable
	most := 0
	for prune := 0; prune < 300; prune++ {
		pool := make([]uint64, 1+rng.Intn(120))
		for i := range pool {
			if rng.Intn(2) == 0 {
				pool[i] = rng.Uint64()
			} else {
				pool[i] = uint64(rng.Intn(1 << 12)) // packed 4-bit platform codes
			}
		}
		ft.Reset()
		ref := map[uint64]int{}
		for i, n := 0, 1+rng.Intn(400); i < n; i++ {
			key := pool[rng.Intn(len(pool))]
			want, wantSeen := ref[key]
			if !wantSeen {
				want = len(ref)
				ref[key] = want
			}
			if g, seen := ft.Group(key); g != want || seen != wantSeen {
				t.Fatalf("prune %d, key %#x: group %d seen %t, the map gives %d %t", prune, key, g, seen, want, wantSeen)
			}
		}
		most = max(most, len(ref))
		slots := 16
		for 2*most > slots {
			slots *= 2
		}
		if ft.Slots() != slots {
			t.Fatalf("prune %d: %d slots after at most %d groups, want %d", prune, ft.Slots(), most, slots)
		}
	}
}

// TestFootTableGrowsMidPrune checks that a table growing in the middle of a
// prune keeps the numbers it gave before, and that members of groups it
// already holds never grow it: only the ninth group outgrows 16 slots.
func TestFootTableGrowsMidPrune(t *testing.T) {
	var ft core.FootTable
	ft.Reset()
	for rep := 0; rep < 100; rep++ {
		for k := uint64(0); k < 8; k++ {
			if g, seen := ft.Group(k << 8); g != int(k) || seen != (rep > 0) {
				t.Fatalf("key %d, pass %d: group %d seen %t", k, rep, g, seen)
			}
		}
	}
	if ft.Slots() != 16 {
		t.Fatalf("8 groups of 100 members take %d slots, want 16", ft.Slots())
	}
	for k := uint64(8); k < 40; k++ {
		if g, seen := ft.Group(k << 8); g != int(k) || seen {
			t.Fatalf("new key %d: group %d seen %t", k, g, seen)
		}
		// Every earlier key keeps its number across each growth.
		for j := uint64(0); j <= k; j++ {
			if g, seen := ft.Group(j << 8); g != int(j) || !seen {
				t.Fatalf("after key %d (%d slots): key %d reads group %d seen %t", k, ft.Slots(), j, g, seen)
			}
		}
	}
	if ft.Slots() != 128 {
		t.Fatalf("40 groups take %d slots, want 128", ft.Slots())
	}
	ft.Reset()
	if g, seen := ft.Group(39 << 8); g != 0 || seen {
		t.Fatalf("after reset, a key of the last prune reads group %d seen %t", g, seen)
	}
}

// TestFootTableFirstProbeCollisions checks keys that share their first
// probe slot, the last one of the table so that their probes wrap around,
// and a key whose first slot they took.
func TestFootTableFirstProbeCollisions(t *testing.T) {
	var ft core.FootTable
	ft.Reset()
	last := ft.Slots() - 1
	var same []uint64
	var first uint64
	haveFirst := false
	for key := uint64(1); len(same) < 6 || !haveFirst; key++ {
		switch h := ft.Home(key); {
		case h == last && len(same) < 6:
			same = append(same, key)
		case h == 0 && !haveFirst:
			first, haveFirst = key, true
		}
	}
	for i, key := range same {
		if g, seen := ft.Group(key); g != i || seen {
			t.Fatalf("colliding key %d: group %d seen %t, want %d false", i, g, seen, i)
		}
	}
	if g, seen := ft.Group(first); g != len(same) || seen {
		t.Fatalf("key homed where the collisions wrapped: group %d seen %t, want %d false", g, seen, len(same))
	}
	for i := len(same) - 1; i >= 0; i-- {
		if g, seen := ft.Group(same[i]); g != i || !seen {
			t.Fatalf("colliding key %d again: group %d seen %t", i, g, seen)
		}
	}
	if g, seen := ft.Group(first); g != len(same) || !seen {
		t.Fatalf("key homed where the collisions wrapped, again: group %d seen %t", g, seen)
	}
	if ft.Slots() != 16 {
		t.Fatalf("7 groups take %d slots, want 16", ft.Slots())
	}
}

// TestFootTableGenerationWrap checks the reset that follows 2³²−1 others:
// the generation counter wraps, and no slot — never written, written at the
// first generation or at the last one — may read as live after it.
func TestFootTableGenerationWrap(t *testing.T) {
	var ft core.FootTable
	ft.Reset()
	ft.Group(1)
	ft.Group(2)
	ft.SetGeneration(math.MaxUint32 - 1)
	ft.Reset()
	if g, seen := ft.Group(3); g != 0 || seen {
		t.Fatalf("at the last generation: group %d seen %t", g, seen)
	}
	ft.Reset()
	if live := ft.LiveSlots(); live != 0 {
		t.Fatalf("after the generation counter wrapped, %d of %d slots read as live", live, ft.Slots())
	}
	for i, key := range []uint64{2, 3, 1} {
		if g, seen := ft.Group(key); g != i || seen {
			t.Fatalf("after the wrap, key %d: group %d seen %t, want %d false", key, g, seen, i)
		}
	}
	ft.Reset()
	if live := ft.LiveSlots(); live != 0 {
		t.Fatalf("one reset after the wrap, %d slots read as live", live)
	}
}
