package model

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// refSet is the map-backed reference the bitset ProcessSet is checked
// against: the obvious implementation of every operation.
type refSet map[ProcessID]bool

func (r refSet) clone() refSet {
	c := refSet{}
	for p := range r {
		c[p] = true
	}
	return c
}

func (r refSet) sorted() []ProcessID {
	out := []ProcessID{}
	for p := range r {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

func (r refSet) String() string {
	parts := []string{}
	for _, p := range r.sorted() {
		parts = append(parts, p.String())
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// checkAgainst fails t unless s and r hold the same members, by every
// observer of ProcessSet.
func checkAgainst(t *testing.T, ctx string, s ProcessSet, r refSet, n int) {
	t.Helper()
	if s.Len() != len(r) || s.IsEmpty() != (len(r) == 0) {
		t.Fatalf("%s: Len %d IsEmpty %v, reference %v", ctx, s.Len(), s.IsEmpty(), r)
	}
	for p := ProcessID(-1); int(p) <= n+64; p++ {
		if s.Contains(p) != r[p] {
			t.Fatalf("%s: Contains(%d) = %v, reference %v", ctx, p, s.Contains(p), r)
		}
	}
	if got, want := s.Slice(), r.sorted(); !slices.Equal(got, want) {
		t.Fatalf("%s: Slice = %v, want %v", ctx, got, want)
	}
	if got, want := s.String(), r.String(); got != want {
		t.Fatalf("%s: String = %q, want %q", ctx, got, want)
	}
	m, ok := s.Min()
	if want := r.sorted(); ok != (len(want) > 0) || ok && m != want[0] {
		t.Fatalf("%s: Min = %v, %v; reference %v", ctx, m, ok, r)
	}
}

// randomPair returns a random set over [0, n) with its reference.
func randomPair(rng *rand.Rand, n int) (ProcessSet, refSet) {
	var s ProcessSet
	r := refSet{}
	for range rng.Intn(n + 1) {
		p := ProcessID(rng.Intn(n))
		s.Add(p)
		r[p] = true
	}
	return s, r
}

// TestProcessSetMatchesReference runs random operation sequences against the
// map-backed reference on both sides of the inline-word boundaries, and
// checks after every step that a copy taken before it is unaffected —
// whichever of the two was mutated.
func TestProcessSetMatchesReference(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 127, 128, 129, 200} {
		t.Run(fmt.Sprint("n=", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			s, r := randomPair(rng, n)
			for step := range 400 {
				ctx := fmt.Sprintf("n=%d step %d", n, step)
				keep, keepRef := s, r.clone() // a copy taken before the step
				o, oRef := randomPair(rng, n)
				p := ProcessID(rng.Intn(n))
				// Mutate the original or the copy; the other must not move.
				mutateCopy := rng.Intn(2) == 0
				tgt, tgtRef := &s, r
				if mutateCopy {
					tgt, tgtRef = &keep, keepRef
				}
				switch rng.Intn(7) {
				case 0:
					tgt.Add(p)
					tgtRef[p] = true
				case 1:
					tgt.Remove(p)
					delete(tgtRef, p)
				case 2:
					if rng.Intn(8) == 0 {
						tgt.Clear()
						clear(tgtRef)
					}
				case 3:
					*tgt = tgt.Union(o)
					for q := range oRef {
						tgtRef[q] = true
					}
				case 4:
					*tgt = tgt.Intersect(o)
					for q := range tgtRef {
						if !oRef[q] {
							delete(tgtRef, q)
						}
					}
				case 5:
					*tgt = tgt.Minus(o)
					for q := range oRef {
						delete(tgtRef, q)
					}
				case 6:
					c := tgt.Clone()
					c.Add(p)
					if !c.Contains(p) {
						t.Fatalf("%s: Add on a clone lost p%d", ctx, p)
					}
				}
				checkAgainst(t, ctx+" (original)", s, r, n)
				checkAgainst(t, ctx+" (copy)", keep, keepRef, n)
				if mutateCopy {
					s, r = keep, keepRef
				}
				// The binary predicates, against the reference.
				inter, sub, eq := false, true, len(r) == len(oRef)
				for q := range r {
					inter = inter || oRef[q]
					sub = sub && oRef[q]
				}
				eq = eq && sub
				if s.Intersects(o) != inter || s.SubsetOf(o) != sub || s.Equal(o) != eq {
					t.Fatalf("%s: Intersects/SubsetOf/Equal = %v/%v/%v, reference %v/%v/%v (%v vs %v)",
						ctx, s.Intersects(o), s.SubsetOf(o), s.Equal(o), inter, sub, eq, r, oRef)
				}
				if !s.Equal(s.Clone()) || !s.SubsetOf(s.Union(o)) {
					t.Fatalf("%s: a set is not equal to its clone or a subset of its union", ctx)
				}
			}
		})
	}
}

// TestProcessSetEqualIgnoresEmptyOverflow: a set whose high members were all
// removed equals one that never had any.
func TestProcessSetEqualIgnoresEmptyOverflow(t *testing.T) {
	s := NewProcessSet(1, 300)
	s.Remove(300)
	if !s.Equal(NewProcessSet(1)) || !NewProcessSet(1).Equal(s) || s.Len() != 1 {
		t.Fatalf("%v with an emptied overflow word is not {p1}", s)
	}
	if !AllProcesses(200).Minus(AllProcesses(200)).IsEmpty() {
		t.Fatal("Π − Π is not empty")
	}
}

// TestProcessSetInlineAllocationFree: at ids below 128 building, copying and
// combining sets allocates nothing.
func TestProcessSetInlineAllocationFree(t *testing.T) {
	a, b := AllProcesses(100), NewProcessSet(3, 99)
	allocs := testing.AllocsPerRun(100, func() {
		var s ProcessSet
		for p := ProcessID(0); p < 127; p += 3 {
			s.Add(p)
		}
		s.Remove(9)
		u := a.Minus(b).Union(s).Intersect(a)
		if u.IsEmpty() || !b.SubsetOf(a) || !u.Intersects(s) {
			t.Fatal("unexpected set algebra result")
		}
	})
	if allocs != 0 {
		t.Fatalf("inline set operations allocate %v times, want 0", allocs)
	}
}
