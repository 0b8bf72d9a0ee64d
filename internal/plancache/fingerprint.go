// Package plancache caches optimization results keyed by a canonical
// structural fingerprint of the logical plan and the model version that
// produced them. It is the serving-layer reuse a production optimizer needs:
// real query workloads are dominated by structurally repeated plans, and the
// full vector enumeration is orders of magnitude more expensive than a hash
// lookup.
//
// The subsystem has four pieces:
//
//   - Canonical fingerprinting (this file): a deterministic SHA-256 over a
//     complete canonical byte encoding of the plan — topology, operator
//     kinds, UDF complexity and selectivity annotations, source
//     cardinalities bucketed into configurable log-scale bands, and the
//     platform-availability matrix. The encoding is invariant to operator
//     IDs, map iteration order and JSON field order.
//   - A sharded, bounded LRU cache (cache.go): fingerprint-prefix sharding,
//     per-entry TTL, byte-accounted capacity, eviction counters.
//   - Singleflight request collapsing (singleflight.go): concurrent
//     identical fingerprints run one enumeration and share the result.
//   - Model-version-aware invalidation (cache.go): entries are keyed
//     (fingerprint, modelVersion) and a hot-swap flash-invalidates stale
//     entries through a generation counter instead of a sweep.
package plancache

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"

	"repro/internal/plan"
	"repro/internal/platform"
)

// Fingerprint is the canonical structural hash of a logical plan under a
// platform universe and availability matrix: SHA-256 of the complete
// canonical encoding. Two plans with equal fingerprints have byte-identical
// canonical encodings, i.e. they are structurally identical up to operator
// relabeling (within the configured cardinality bands).
type Fingerprint [sha256.Size]byte

// String returns the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns a 12-hex-character prefix, enough for logs and span attrs.
func (f Fingerprint) Short() string {
	var b [12]byte
	hex.Encode(b[:], f[:6])
	return string(b[:])
}

// cardBands is the cardinality banding resolution of every cache: four bands
// per decade, i.e. band edges at 10^(k/4) ≈ ×1.78 steps. Plans whose source
// cardinalities differ by less than a band share a fingerprint and therefore
// a cached plan choice; see DESIGN.md deviation note 12 for why that is
// sound under the simulator's cost regimes.
const cardBands = 4

// Canon is the canonical relabeling computed alongside a fingerprint: the
// permutation between the plan's operator IDs and its canonical operator
// order. Cached platform assignments are stored in canonical order, so any
// requester — whose equal-fingerprint plan may label operators differently —
// can remap them onto its own operator IDs through its own Canon.
type Canon struct {
	// Perm maps operator ID to canonical index.
	Perm []int
}

// NumOps returns the number of operators in the canonicalized plan.
func (c *Canon) NumOps() int { return len(c.Perm) }

// cardBand buckets a cardinality into log-scale bands: band k covers
// [10^(k/bands), 10^((k+1)/bands)). Values at or below one tuple collapse
// into band 0. The small epsilon keeps exact powers of ten on the
// floating-point band edge they belong to.
func cardBand(x float64, bands int) int64 {
	if x <= 1 {
		return 0
	}
	return int64(math.Floor(math.Log10(x)*float64(bands) + 1e-9))
}

// fnv-1a over 64-bit words: the label-refinement mixer. Only used to order
// operators; the fingerprint itself hashes the complete canonical encoding,
// so label collisions can at worst produce a false cache miss, never a
// false hit.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func mix(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime
	return h
}

// Compute canonicalizes l under the given platform universe and availability
// matrix and returns its fingerprint together with the canonical operator
// permutation. bands is the cardinality banding resolution in bands per
// decade (0 means cardBands).
//
// The canonical order is a topological order with Weisfeiler-Leman-refined
// label tie-breaking: operator labels start from local attributes (kind,
// UDF complexity, selectivity, loop iterations, banded source cardinality,
// availability mask) and are iteratively refined with the labels of their
// dataflow neighbours in port order. Ready operators are then emitted
// smallest-label first. Truly symmetric (automorphic) operators may tie;
// either choice yields the same canonical encoding, and any residual
// asymmetry that labels fail to separate only risks a cache miss.
func Compute(l *plan.Logical, platforms []platform.ID, avail *platform.Availability, bands int) (Fingerprint, *Canon, error) {
	var zero Fingerprint
	if l == nil || len(l.Ops) == 0 {
		return zero, nil, fmt.Errorf("plancache: cannot fingerprint an empty plan")
	}
	if len(platforms) == 0 || len(platforms) > 32 {
		return zero, nil, fmt.Errorf("plancache: fingerprint needs 1-32 platforms, got %d", len(platforms))
	}
	if avail == nil {
		return zero, nil, fmt.Errorf("plancache: fingerprint needs an availability matrix")
	}
	if bands <= 0 {
		bands = cardBands
	}
	n := len(l.Ops)

	// One scratch block holds the eight per-operator work arrays.
	scratch := make([]uint64, 8*n)
	cut := func() []uint64 {
		part := scratch[:n:n]
		scratch = scratch[n:]
		return part
	}
	availMask, srcBand, loopIters := cut(), cut(), cut()
	labels, next, indeg, ready, inv := cut(), cut(), cut(), cut()[:0], cut()

	// Per-operator local attributes, computed once: the availability mask
	// (which platform columns may run this operator), the banded source
	// cardinality (non-sources derive theirs from structure + selectivity,
	// so only sources contribute a cardinality of their own; -1 for the
	// rest) and the iteration count of the operator's loop region.
	for i, o := range l.Ops {
		for j, p := range platforms {
			if avail.Has(o.Kind, p) {
				availMask[i] |= 1 << uint(j)
			}
		}
		band := int64(-1)
		if len(o.In) == 0 {
			band = cardBand(l.SourceCards[o.ID], bands)
		}
		srcBand[i] = uint64(band)
		if o.LoopID != 0 {
			loopIters[i] = uint64(uint32(l.Loops[o.LoopID]))
		}
	}

	// Initial labels from local attributes only.
	for i, o := range l.Ops {
		h := uint64(fnvOffset)
		h = mix(h, uint64(o.Kind))
		h = mix(h, uint64(o.UDF))
		h = mix(h, math.Float64bits(o.Selectivity))
		h = mix(h, loopIters[i])
		h = mix(h, srcBand[i])
		h = mix(h, availMask[i])
		h = mix(h, uint64(len(o.In)))
		h = mix(h, uint64(len(o.Out)))
		labels[i] = h
	}
	// Weisfeiler-Leman refinement: fold in neighbour labels in port order.
	// The number of rounds bounds how far structural context propagates;
	// the plan diameter suffices, capped for very long pipelines (the final
	// encoding is complete regardless, so this only affects tie quality).
	rounds := min(n, 24)
	// Besides each neighbour's label, fold in the port positions this
	// operator occupies at that neighbour. Ports are ordered structure (a
	// join's left and right inputs are not interchangeable), but a
	// neighbour's own label never reveals which of its ports *we* feed: two
	// identical sources feeding the two sides of one join would stay
	// label-equal forever and the ID tie-break below would make the
	// canonical order depend on the labeling — exactly what the fingerprint
	// must be invariant to.
	for r := 0; r < rounds; r++ {
		for i, o := range l.Ops {
			h := mix(labels[i], 0x9e3779b97f4a7c15)
			for k, p := range o.In {
				h = mix(h, uint64(0x10+k))
				h = mix(h, labels[p])
				for j, c := range l.Ops[p].Out {
					if c == o.ID {
						h = mix(h, uint64(0x30+j))
					}
				}
			}
			for k, c := range o.Out {
				h = mix(h, uint64(0x20+k))
				h = mix(h, labels[c])
				for j, p := range l.Ops[c].In {
					if p == o.ID {
						h = mix(h, uint64(0x40+j))
					}
				}
			}
			next[i] = h
		}
		labels, next = next, labels
	}

	// Canonical order: Kahn's topological sort emitting the smallest-label
	// ready operator first (original ID as the last-resort tiebreak for
	// label-identical operators).
	for _, o := range l.Ops {
		indeg[o.ID] = uint64(len(o.In))
		if len(o.In) == 0 {
			ready = append(ready, uint64(o.ID))
		}
	}
	perm := make([]int, n) // op ID -> canonical index; inv is the inverse
	for ci := 0; ci < n; ci++ {
		if len(ready) == 0 {
			return zero, nil, fmt.Errorf("plancache: plan contains a cycle")
		}
		best := 0
		for j := 1; j < len(ready); j++ {
			a, b := ready[j], ready[best]
			if labels[a] < labels[b] || (labels[a] == labels[b] && a < b) {
				best = j
			}
		}
		id := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		perm[id] = ci
		inv[ci] = id
		for _, c := range l.Ops[id].Out {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, uint64(c))
			}
		}
	}

	// Loop regions get canonical identities: one plus the smallest canonical
	// index among the region's members (0 outside any region). This captures
	// which operators share an iterative region, not just each operator's
	// iteration count. Sorting the loop operators' canonical indices by
	// region brings each region's smallest to the front of its run. The
	// ordering's work arrays are free by now: indeg has counted down to all
	// zeros.
	region, members := indeg, next[:0]
	loopOf := func(ci uint64) int { return l.Ops[inv[ci]].LoopID }
	for ci := range inv {
		if loopOf(uint64(ci)) != 0 {
			members = append(members, uint64(ci))
		}
	}
	slices.SortFunc(members, func(a, b uint64) int {
		return cmp.Or(cmp.Compare(loopOf(a), loopOf(b)), cmp.Compare(a, b))
	})
	for i, ci := range members {
		if i > 0 && loopOf(ci) == loopOf(members[i-1]) {
			region[ci] = region[members[i-1]]
		} else {
			region[ci] = ci + 1
		}
	}

	// Complete canonical encoding. Every structural and annotation feature
	// appears, in canonical order, so equal encodings mean isomorphic plans
	// (within a cardinality band) — the collision-resistance property the
	// fingerprint inherits from SHA-256. A typical plan's encoding fits the
	// stack buffer; a longer one moves to the heap as append grows it.
	var stack [4096]byte
	enc := stack[:0]
	enc = append(enc, fingerprintHeader...)
	enc = binary.LittleEndian.AppendUint64(enc, uint64(bands))
	enc = binary.LittleEndian.AppendUint64(enc, uint64(len(platforms)))
	for _, p := range platforms {
		name := p.String()
		enc = binary.LittleEndian.AppendUint64(enc, uint64(len(name)))
		enc = append(enc, name...)
	}
	enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(l.AvgTupleBytes))
	enc = binary.LittleEndian.AppendUint64(enc, uint64(n))
	for ci := 0; ci < n; ci++ {
		o := l.Ops[inv[ci]]
		for _, v := range [...]uint64{
			uint64(o.Kind), uint64(o.UDF), math.Float64bits(o.Selectivity), loopIters[o.ID],
			region[ci], srcBand[o.ID], availMask[o.ID],
		} {
			enc = binary.LittleEndian.AppendUint64(enc, v)
		}
		enc = binary.LittleEndian.AppendUint64(enc, uint64(len(o.In)))
		for _, p := range o.In {
			enc = binary.LittleEndian.AppendUint64(enc, uint64(perm[p]))
		}
		enc = binary.LittleEndian.AppendUint64(enc, uint64(len(o.Out)))
		for _, c := range o.Out {
			enc = binary.LittleEndian.AppendUint64(enc, uint64(perm[c]))
		}
	}
	return sha256.Sum256(enc), &Canon{Perm: perm}, nil
}

// fingerprintHeader versions the canonical encoding.
const fingerprintHeader = "robopt-plan-fp-v1"
