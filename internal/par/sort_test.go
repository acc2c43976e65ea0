package par

import (
	"math/rand"
	"slices"
	"testing"
)

func intLess(a, b int) bool { return a < b }

func randomInts(rng *rand.Rand, n, span int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = rng.Intn(span)
	}
	return xs
}

func TestSortMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{0, 1, 2, 17, 1000, serialSortCutoff - 1, serialSortCutoff * 4, serialSortCutoff*8 + 13}
	for _, n := range sizes {
		for _, w := range []int{1, 2, 8} {
			xs := randomInts(rng, n, n/2+1) // duplicates likely
			want := slices.Clone(xs)
			slices.Sort(want)
			Sort(xs, intLess, Options{Workers: w})
			if !slices.Equal(xs, want) {
				t.Fatalf("Sort n=%d w=%d: mismatch", n, w)
			}
		}
	}
}

func TestSortAlreadySortedAndReversed(t *testing.T) {
	n := serialSortCutoff * 4
	asc := make([]int, n)
	desc := make([]int, n)
	for i := range asc {
		asc[i] = i
		desc[i] = n - i
	}
	Sort(asc, intLess, Options{Workers: 4})
	Sort(desc, intLess, Options{Workers: 4})
	if !slices.IsSorted(asc) || !slices.IsSorted(desc) {
		t.Fatal("Sort failed on presorted/reversed input")
	}
}

func TestMergeSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(9)
		lists := make([][]int, k)
		var all []int
		for l := range lists {
			n := rng.Intn(5000)
			if trial%5 == 0 && l%2 == 0 {
				n = 0 // exercise empty lists
			}
			lists[l] = randomInts(rng, n, 2000)
			slices.Sort(lists[l])
			all = append(all, lists[l]...)
		}
		slices.Sort(all)
		got := make([]int, len(all))
		MergeSortedInto(got, lists, intLess, Options{Workers: 1 + trial%8})
		if !slices.Equal(got, all) {
			t.Fatalf("trial %d: merge mismatch (k=%d, total=%d)", trial, k, len(all))
		}
	}
}

func TestMergeSortedIntoLarge(t *testing.T) {
	// Large enough to take the partitioned parallel path.
	rng := rand.New(rand.NewSource(3))
	lists := make([][]int, 8)
	total := 0
	for l := range lists {
		lists[l] = randomInts(rng, serialSortCutoff*2+l*37, 1<<20)
		slices.Sort(lists[l])
		total += len(lists[l])
	}
	dst := make([]int, total)
	MergeSortedInto(dst, lists, intLess, Options{Workers: 8})
	if !slices.IsSorted(dst) {
		t.Fatal("partitioned merge produced unsorted output")
	}
}

func TestPrefixSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 5, serialSortCutoff * 4} {
		for _, w := range []int{1, 3, 8} {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(rng.Intn(100))
			}
			want := make([]int64, n)
			var sum int64
			for i, x := range xs {
				want[i] = sum
				sum += x
			}
			got := PrefixSum(xs, Options{Workers: w})
			if got != sum {
				t.Fatalf("n=%d w=%d: total %d, want %d", n, w, got, sum)
			}
			if !slices.Equal(xs, want) {
				t.Fatalf("n=%d w=%d: exclusive prefix mismatch", n, w)
			}
		}
	}
}

func TestReduce(t *testing.T) {
	n := 10000
	sum := Reduce(n, Options{Workers: 4}, 0, func(_, i int) int { return i }, func(a, b int) int { return a + b })
	if want := n * (n - 1) / 2; sum != want {
		t.Fatalf("Reduce sum = %d, want %d", sum, want)
	}
	max := Reduce(n, Options{Workers: 4, Strategy: Cyclic}, -1, func(_, i int) int { return i }, func(a, b int) int {
		if a > b {
			return a
		}
		return b
	})
	if max != n-1 {
		t.Fatalf("Reduce max = %d, want %d", max, n-1)
	}
	if got := Reduce(0, Options{}, 0, func(_, i int) int { return 1 }, func(a, b int) int { return a + b }); got != 0 {
		t.Fatalf("empty Reduce should return the identity, got %d", got)
	}
}
