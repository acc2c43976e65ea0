package par

import (
	"math/rand"
	"slices"
	"testing"
)

func TestPrefixSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 5, serialScanCutoff * 4} {
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
