package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/workload"
)

// The scope walks the enumeration's bookkeeping once made per
// concatenation, kept here as the references the boundary-driven versions
// must equal.

// crossingByScope lists the dataflow edges with one endpoint in a and the
// other in b, in the order of c.edges.
func crossingByScope(c *Context, a, b plan.Bitset) []plan.Edge {
	var out []plan.Edge
	for _, e := range c.edges {
		if (a.Has(e.From) && b.Has(e.To)) || (b.Has(e.From) && a.Has(e.To)) {
			out = append(out, e)
		}
	}
	return out
}

// boundaryByScope lists, ascending, the operators of scope with a producer
// or a consumer outside it.
func boundaryByScope(c *Context, scope plan.Bitset) []plan.OpID {
	var out []plan.OpID
	for id := scope.Next(0); id >= 0; id = scope.Next(id + 1) {
		o := c.Plan.Op(id)
		if slices.ContainsFunc(append(slices.Clone(o.In), o.Out...), func(nb plan.OpID) bool { return !scope.Has(nb) }) {
			out = append(out, id)
		}
	}
	return out
}

// childrenByScope lists the owners of the consumers of node's operators
// outside its scope, found among the live nodes, by ascending sequence
// number.
func childrenByScope(node *enumNode, live []*enumNode, l *plan.Logical) []*enumNode {
	var out []*enumNode
	scope := node.e.Scope
	for id := scope.Next(0); id >= 0; id = scope.Next(id + 1) {
		for _, nb := range l.Op(id).Out {
			if scope.Has(nb) {
				continue
			}
			i := slices.IndexFunc(live, func(o *enumNode) bool { return o.e.Scope.Has(nb) })
			if o := live[i]; !slices.Contains(out, o) {
				out = append(out, o)
			}
		}
	}
	slices.SortFunc(out, func(a, b *enumNode) int { return a.seq - b.seq })
	return out
}

// TestBoundaryBookkeeping merges disjoint enumerations in random orders and
// checks, at every step, what the enumeration derives from its inputs'
// boundaries — MergeInfo's crossing edges (content and order), fuses and
// merged boundary, the frontier's owner of every live boundary operator,
// every live node's children and tie — against the scope walks above.
func TestBoundaryBookkeeping(t *testing.T) {
	type named struct {
		name string
		l    *plan.Logical
	}
	var plans []named
	for _, n := range []int{4, 9, 17, 28, 40} {
		for seed := int64(1); seed <= 3; seed++ {
			plans = append(plans, named{fmt.Sprintf("dag%d/%d", n, seed), workload.RandomDAG(n, 1e7, seed)})
		}
	}
	plans = append(plans,
		named{"jointree3", workload.JoinTree(3, 1e7)},
		named{"kmeans", workload.Kmeans(1e7, workload.DefaultKmeans)})
	rng := rand.New(rand.NewSource(7))
	for _, p := range plans {
		for k := 2; k <= platform.NumPlatforms; k++ {
			c, err := NewContext(p.l, platform.Subset(k), platform.UniformAvailability(k))
			if err != nil {
				t.Fatalf("%s k=%d: %v", p.name, k, err)
			}
			for trial := 0; trial < 3; trial++ {
				checkMergeOrder(t, fmt.Sprintf("%s k=%d trial %d", p.name, k, trial), c, rng)
			}
		}
	}
}

// checkMergeOrder merges c's singleton enumerations pairwise in a random
// order until one remains, each into the run's slot for its step, checking
// the bookkeeping before every merge.
func checkMergeOrder(t *testing.T, name string, c *Context, rng *rand.Rand) {
	t.Helper()
	n := c.Plan.NumOps()
	c.beginRun(len(c.alts))
	defer c.endRun(false)
	var live []*enumNode
	for id := range plan.OpID(n) {
		e := c.enumerateSingleton(id, nil)
		if want := boundaryByScope(c, e.Scope); !slices.Equal(e.Boundary, want) {
			t.Fatalf("%s: singleton %d boundary %v, want %v", name, id, e.Boundary, want)
		}
		live = append(live, &c.store.nodes[id])
	}
	for step := 0; len(live) > 1; step++ {
		checkFrontier(t, name, c, live)
		i, j := rng.Intn(len(live)), rng.Intn(len(live)-1)
		if j >= i {
			j++
		}
		a, b := &live[i].e, &live[j].e
		info := c.MergeInfo(a, b)
		if want := crossingByScope(c, a.Scope, b.Scope); !slices.Equal(info.Crossing, want) {
			t.Fatalf("%s: crossing %v × %v = %v, want %v", name, a.Scope, b.Scope, info.Crossing, want)
		}
		fuses := 0
		for _, e := range info.Crossing {
			if c.ops[e.From].linear && c.ops[e.To].linear {
				fuses++
			}
		}
		if info.Fuses != fuses {
			t.Fatalf("%s: fuses %d, want %d", name, info.Fuses, fuses)
		}
		merged := c.store.enum(n + step)
		copy(merged.Scope, a.Scope)
		merged.Scope.UnionInto(b.Scope)
		merged.Boundary = info.boundary
		if want := boundaryByScope(c, merged.Scope); !slices.Equal(merged.Boundary, want) {
			t.Fatalf("%s: merged boundary of %v = %v, want %v", name, merged.Scope, merged.Boundary, want)
		}
		live[i] = &c.store.nodes[n+step]
		live = slices.Delete(live, j, j+1)
	}
}

// checkFrontier lays live out as a frontier and checks the owner of every
// boundary operator and every node's children and tie.
func checkFrontier(t *testing.T, name string, c *Context, live []*enumNode) {
	t.Helper()
	f := c.newFrontier(c.Plan.NumOps())
	for _, nd := range live {
		f.add(nd)
	}
	for _, nd := range f.nodes {
		for _, id := range nd.e.Boundary {
			if f.owner[id] != nd {
				t.Fatalf("%s: boundary operator %d of %v is not owned by its enumeration", name, id, nd.e.Scope)
			}
		}
	}
	for _, nd := range f.nodes {
		nd.children = c.childrenOf(nd, f.owner, nil)
		if want := childrenByScope(nd, live, c.Plan); !slices.Equal(nd.children, want) {
			t.Fatalf("%s: children of %v differ from the scope walk", name, nd.e.Scope)
		}
		c.setPriority(nd, OrderPriority, f)
		union := nd.e.Scope.Clone()
		for _, ch := range nd.children {
			union.UnionInto(ch.e.Scope)
		}
		if want := len(boundaryByScope(c, union)); nd.tie != want {
			t.Fatalf("%s: tie of %v = %d, want %d", name, nd.e.Scope, nd.tie, want)
		}
	}
}

// TestAndAssignMatchesOverlay checks the word-wise assignment merge against
// the overlay it replaces (the left assignment, with the right scope's
// choices written over it) at plan sizes around the eight-operator word, for
// random disjoint scopes, either possibly empty.
func TestAndAssignMatchesOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, 8, 9, 16, 17} {
		for trial := 0; trial < 50; trial++ {
			a, b := make([]uint8, n), make([]uint8, n)
			want := make([]uint8, n)
			for i := range n {
				a[i], b[i] = Unassigned, Unassigned
				switch choice := uint8(rng.Intn(platform.NumPlatforms)); rng.Intn(3) {
				case 0:
					a[i] = choice
				case 1:
					b[i] = choice
				}
			}
			copy(want, a)
			for i := range n {
				if b[i] != Unassigned {
					want[i] = b[i]
				}
			}
			got := make([]uint8, n)
			andAssign(got, a, b)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d: AND of %v and %v = %v, want %v", n, a, b, got, want)
			}
		}
	}
}
