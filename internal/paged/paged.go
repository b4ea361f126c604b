// Package paged provides an array that grows by whole pages, for stores
// that grow with the run: the NIC injection heaps and the tracer's event
// log. A slice grown by append copies every entry at each growth and
// leaves the old array to the collector; an Array never copies a page
// once it is full, so growing costs one page allocation and nothing else
// touches the entries already stored. Once the first page is full, an
// entry keeps its address for as long as it is stored.
package paged

// PageLen is the number of entries a page holds.
const PageLen = 1 << pageShift

const pageShift = 9

// Array is a growable array of T stored in pages of PageLen entries. The
// first page grows like a slice, by doubling, up to PageLen entries, so
// a short array stays small; every later page is allocated whole. The
// page directory, one slice header per page, grows by append, so now and
// then opening a page also copies the directory, never an entry. Pages
// are kept when the array shrinks, so an array that shrinks and grows
// again within the pages it has allocates nothing. The zero Array is
// empty and ready to use.
type Array[T any] struct {
	pages [][]T // every page has len == cap; all but the first hold PageLen
	n     int
}

// Len returns the number of stored entries.
func (a *Array[T]) Len() int { return a.n }

// At returns a pointer to entry i, which stays valid while the entry is
// stored. It panics if i is out of range.
func (a *Array[T]) At(i int) *T {
	if uint(i) >= uint(a.n) {
		panic("paged: index out of range")
	}
	return &a.pages[i>>pageShift][i&(PageLen-1)]
}

// Push appends x.
func (a *Array[T]) Push(x T) {
	p, off := a.n>>pageShift, a.n&(PageLen-1)
	switch {
	case p == len(a.pages):
		if p == 0 {
			a.pages = append(a.pages, make([]T, 1))
		} else {
			a.pages = append(a.pages, make([]T, PageLen))
		}
	case p == 0 && off == len(a.pages[0]):
		grown := make([]T, min(2*off, PageLen))
		copy(grown, a.pages[0])
		a.pages[0] = grown
	}
	a.pages[p][off] = x
	a.n++
}

// Pop removes and returns the last entry, zeroing its slot so the array
// keeps nothing it pointed at alive. It panics on an empty array.
func (a *Array[T]) Pop() T {
	e := a.At(a.n - 1)
	x := *e
	var zero T
	*e = zero
	a.n--
	return x
}

// Truncate removes every entry from index n on, zeroing their slots.
func (a *Array[T]) Truncate(n int) {
	for a.n > n {
		a.Pop()
	}
}
