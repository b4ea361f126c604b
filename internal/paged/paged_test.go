package paged

import "testing"

// fill pushes 0..n-1.
func fill(a *Array[int], n int) {
	for i := 0; i < n; i++ {
		a.Push(i)
	}
}

func TestPushAtAcrossPageBoundaries(t *testing.T) {
	var a Array[int]
	n := 3*PageLen + 7
	fill(&a, n)
	if a.Len() != n {
		t.Fatalf("Len = %d, want %d", a.Len(), n)
	}
	for _, i := range []int{0, 1, PageLen - 1, PageLen, PageLen + 1, 2*PageLen - 1, 2 * PageLen, 3 * PageLen, n - 1} {
		if got := *a.At(i); got != i {
			t.Errorf("At(%d) = %d", i, got)
		}
	}
	if len(a.pages) != 4 {
		t.Errorf("%d pages for %d entries, want 4", len(a.pages), n)
	}
	for k, p := range a.pages {
		if len(p) != PageLen {
			t.Errorf("page %d holds %d entries, want %d", k, len(p), PageLen)
		}
	}
}

// TestFirstPageGrowsLikeASlice: a short array stays small, and the first
// page stops growing at one page.
func TestFirstPageGrowsLikeASlice(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 2}, {3, 4}, {5, 8}, {9, 16}, {200, 256}, {PageLen, PageLen}} {
		var a Array[int]
		fill(&a, c.n)
		if len(a.pages) != 1 || len(a.pages[0]) != c.want {
			t.Errorf("%d entries: %d pages, the first of %d entries; want one of %d",
				c.n, len(a.pages), len(a.pages[0]), c.want)
		}
	}
	var a Array[int]
	fill(&a, PageLen+1)
	if len(a.pages) != 2 || len(a.pages[0]) != PageLen || len(a.pages[1]) != PageLen {
		t.Errorf("one past a page: %d pages, want two of %d entries", len(a.pages), PageLen)
	}
}

// TestGrowthNeverMovesAnEntry: once the first page is full, an entry
// keeps its address however far the array grows.
func TestGrowthNeverMovesAnEntry(t *testing.T) {
	var a Array[int]
	fill(&a, PageLen)
	fill(&a, PageLen+1)
	idx := []int{0, PageLen - 1, PageLen, 2 * PageLen}
	addr := make([]*int, len(idx))
	for k, i := range idx {
		addr[k] = a.At(i)
	}
	fill(&a, 5*PageLen)
	for k, i := range idx {
		if a.At(i) != addr[k] {
			t.Errorf("entry %d moved as the array grew", i)
		}
	}
}

func TestPopZeroesTheSlot(t *testing.T) {
	var a Array[*int]
	vals := make([]int, PageLen+2)
	for i := range vals {
		a.Push(&vals[i])
	}
	last := a.At(PageLen + 1)
	if got := a.Pop(); got != &vals[PageLen+1] {
		t.Fatalf("Pop returned %p, want the last entry %p", got, &vals[PageLen+1])
	}
	if *last != nil {
		t.Error("Pop left the popped pointer in its slot")
	}
	boundary := a.At(PageLen - 1)
	a.Truncate(PageLen - 1)
	if a.Len() != PageLen-1 || *boundary != nil || *a.At(PageLen - 2) != &vals[PageLen-2] {
		t.Error("Truncate did not zero exactly the removed slots")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	var a Array[int]
	fill(&a, 3)
	a.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("At(Len()) did not panic")
		}
	}()
	a.At(2)
}

// TestAllocations: a warm push+pop allocates nothing, also across a page
// boundary, and opening a page allocates that page and nothing else.
func TestAllocations(t *testing.T) {
	var a Array[int]
	fill(&a, PageLen-1)
	if n := testing.AllocsPerRun(100, func() {
		a.Push(1)
		a.Push(2)
		a.Pop()
		a.Pop()
	}); n != 0 {
		t.Errorf("warm push+pop across a page boundary allocates %v times, want 0", n)
	}
	// Fill whole pages past the first, with room left in the page
	// directory (one header per page) so only the pages are new.
	a.Truncate(0)
	fill(&a, PageLen)
	a.pages = append(make([][]int, 0, 8), a.pages...)
	if n := testing.AllocsPerRun(6, func() { fill(&a, PageLen) }); n != 1 {
		t.Errorf("filling a new page allocated %v times, want 1", n)
	}
}
