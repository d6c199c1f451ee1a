package model

import (
	"fmt"
	"math/bits"
	"strings"
)

// ProcessID identifies a process. Processes in a system of size n are
// numbered 0..n-1.
type ProcessID int

// Time is a logical instant of the discrete global clock of the paper's
// model. Processes cannot read it; it is used by failure patterns, recorded
// failure-detector histories and the simulator.
type Time int64

// String implements fmt.Stringer.
func (p ProcessID) String() string { return fmt.Sprintf("p%d", int(p)) }

// inlineWords is how many 64-bit words of a ProcessSet are stored inline;
// ids below inlineIDs need no other storage.
const (
	inlineWords = 2
	inlineIDs   = 64 * inlineWords
)

// ProcessSet is a finite set of process identifiers, stored as a bitset.
// Ids below 128 live in two inline words, so every set of a system of at most
// 128 processes is a plain value: building, copying, querying and combining
// it allocates nothing. Larger ids spill into an overflow slice that is never
// written in place — a mutation that changes it installs a fresh one.
//
// The zero value is an empty, usable set. A copy of a set (an assignment, a
// value passed or returned, Clone) is independent of its original: mutating
// either never changes the other. Code that keeps a set in a map or a struct
// field must therefore write a mutated copy back.
type ProcessSet struct {
	lo [inlineWords]uint64
	hi []uint64 // words for ids ≥ inlineIDs; shared by copies, so read-only
}

// NewProcessSet returns a set containing the given processes.
func NewProcessSet(ps ...ProcessID) ProcessSet {
	var s ProcessSet
	for _, p := range ps {
		s.Add(p)
	}
	return s
}

// AllProcesses returns the set {0, ..., n-1}.
func AllProcesses(n int) ProcessSet {
	var s ProcessSet
	for i := range s.lo {
		s.lo[i] = fullWord(n - 64*i)
	}
	if n > inlineIDs {
		s.hi = make([]uint64, (n-inlineIDs+63)/64)
		for i := range s.hi {
			s.hi[i] = fullWord(n - inlineIDs - 64*i)
		}
	}
	return s
}

// fullWord returns a word with its lowest min(k, 64) bits set (none if k ≤ 0).
func fullWord(k int) uint64 {
	switch {
	case k <= 0:
		return 0
	case k >= 64:
		return ^uint64(0)
	default:
		return 1<<k - 1
	}
}

// Add inserts p into the set. It panics if p is negative.
func (s *ProcessSet) Add(p ProcessID) {
	if uint(p) < inlineIDs {
		s.lo[p>>6] |= 1 << (p & 63)
		return
	}
	s.addHigh(p)
}

// addHigh is Add for an id outside the inline words: it installs a fresh
// overflow slice rather than write into one a copy may share.
func (s *ProcessSet) addHigh(p ProcessID) {
	if p < 0 {
		panic(fmt.Sprintf("model: negative process id %d", int(p)))
	}
	w, bit := int(p-inlineIDs)>>6, uint64(1)<<(p&63)
	if w < len(s.hi) && s.hi[w]&bit != 0 {
		return
	}
	hi := make([]uint64, max(len(s.hi), w+1))
	copy(hi, s.hi)
	hi[w] |= bit
	s.hi = hi
}

// Remove deletes p from the set; it is a no-op if p is absent.
func (s *ProcessSet) Remove(p ProcessID) {
	if uint(p) < inlineIDs {
		s.lo[p>>6] &^= 1 << (p & 63)
		return
	}
	if !s.Contains(p) {
		return
	}
	hi := make([]uint64, len(s.hi))
	copy(hi, s.hi)
	hi[int(p-inlineIDs)>>6] &^= 1 << (p & 63)
	s.hi = hi
}

// Clear removes every member.
func (s *ProcessSet) Clear() { *s = ProcessSet{} }

// Contains reports whether p is a member.
func (s ProcessSet) Contains(p ProcessID) bool {
	if p < 0 {
		return false
	}
	if p < inlineIDs {
		return s.lo[p>>6]&(1<<(p&63)) != 0
	}
	w := int(p-inlineIDs) >> 6
	return w < len(s.hi) && s.hi[w]&(1<<(p&63)) != 0
}

// Len returns the number of members.
func (s ProcessSet) Len() int {
	n := 0
	for _, w := range s.lo {
		n += bits.OnesCount64(w)
	}
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no members.
func (s ProcessSet) IsEmpty() bool {
	for _, w := range s.lo {
		if w != 0 {
			return false
		}
	}
	for _, w := range s.hi {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of the set; like any copy it is independent of s.
func (s ProcessSet) Clone() ProcessSet { return s }

// word returns the i-th overflow word of s, zero beyond its end.
func (s ProcessSet) word(i int) uint64 {
	if i < len(s.hi) {
		return s.hi[i]
	}
	return 0
}

// combine returns the set whose every word is op of the words of s and t.
// The overflow words are computed into a fresh slice, dropped when all zero.
func (s ProcessSet) combine(t ProcessSet, op func(a, b uint64) uint64) ProcessSet {
	for i := range s.lo {
		s.lo[i] = op(s.lo[i], t.lo[i])
	}
	if n := max(len(s.hi), len(t.hi)); n > 0 {
		hi := make([]uint64, n)
		nonzero := false
		for i := range hi {
			hi[i] = op(s.word(i), t.word(i))
			nonzero = nonzero || hi[i] != 0
		}
		s.hi = nil
		if nonzero {
			s.hi = hi
		}
	}
	return s
}

// Union returns a new set containing the members of s and t.
func (s ProcessSet) Union(t ProcessSet) ProcessSet {
	return s.combine(t, func(a, b uint64) uint64 { return a | b })
}

// Intersect returns a new set containing the members common to s and t.
func (s ProcessSet) Intersect(t ProcessSet) ProcessSet {
	return s.combine(t, func(a, b uint64) uint64 { return a & b })
}

// Minus returns a new set containing the members of s that are not in t.
func (s ProcessSet) Minus(t ProcessSet) ProcessSet {
	return s.combine(t, func(a, b uint64) uint64 { return a &^ b })
}

// Intersects reports whether s and t share at least one member.
func (s ProcessSet) Intersects(t ProcessSet) bool {
	for i := range s.lo {
		if s.lo[i]&t.lo[i] != 0 {
			return true
		}
	}
	for i := range min(len(s.hi), len(t.hi)) {
		if s.hi[i]&t.hi[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every member of s belongs to t.
func (s ProcessSet) SubsetOf(t ProcessSet) bool {
	for i := range s.lo {
		if s.lo[i]&^t.lo[i] != 0 {
			return false
		}
	}
	for i, w := range s.hi {
		if w&^t.word(i) != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t have exactly the same members.
func (s ProcessSet) Equal(t ProcessSet) bool {
	if s.lo != t.lo {
		return false
	}
	for i := range max(len(s.hi), len(t.hi)) {
		if s.word(i) != t.word(i) {
			return false
		}
	}
	return true
}

// members calls yield for every member in ascending order, stopping early if
// yield returns false.
func (s ProcessSet) members(yield func(ProcessID) bool) {
	visit := func(base int, w uint64) bool {
		for w != 0 {
			if !yield(ProcessID(base + bits.TrailingZeros64(w))) {
				return false
			}
			w &= w - 1
		}
		return true
	}
	for i, w := range s.lo {
		if !visit(64*i, w) {
			return
		}
	}
	for i, w := range s.hi {
		if !visit(inlineIDs+64*i, w) {
			return
		}
	}
}

// Slice returns the members in ascending order.
func (s ProcessSet) Slice() []ProcessID {
	out := make([]ProcessID, 0, s.Len())
	for p := range s.members {
		out = append(out, p)
	}
	return out
}

// Min returns the smallest member and true, or 0 and false if the set is empty.
func (s ProcessSet) Min() (ProcessID, bool) {
	for i, w := range s.lo {
		if w != 0 {
			return ProcessID(64*i + bits.TrailingZeros64(w)), true
		}
	}
	for i, w := range s.hi {
		if w != 0 {
			return ProcessID(inlineIDs + 64*i + bits.TrailingZeros64(w)), true
		}
	}
	return 0, false
}

// String implements fmt.Stringer, e.g. "{p0,p2,p3}".
func (s ProcessSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for p := range s.members {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		b.WriteString(p.String())
	}
	b.WriteByte('}')
	return b.String()
}
