package par

// serialScanCutoff is the size below which PrefixSum scans serially:
// goroutine overhead only pays off on larger inputs.
const serialScanCutoff = 1 << 13

// PrefixSum replaces xs in place with its exclusive prefix sum and
// returns the total: xs[i] becomes xs[0]+...+xs[i-1]. The scan runs as
// the textbook two-pass parallel algorithm (per-block sums, serial scan
// of the block sums, parallel block rewrite).
func PrefixSum(xs []int64, opt Options) int64 {
	n := len(xs)
	w := opt.workers()
	if w > n/serialScanCutoff {
		w = n / serialScanCutoff
	}
	if w <= 1 {
		var sum int64
		for i, x := range xs {
			xs[i] = sum
			sum += x
		}
		return sum
	}
	blockSums := make([]int64, w)
	For(w, Options{Workers: w, Grain: 1}, func(_, b int) {
		var sum int64
		for _, x := range xs[b*n/w : (b+1)*n/w] {
			sum += x
		}
		blockSums[b] = sum
	})
	var total int64
	for b, s := range blockSums {
		blockSums[b] = total
		total += s
	}
	For(w, Options{Workers: w, Grain: 1}, func(_, b int) {
		sum := blockSums[b]
		block := xs[b*n/w : (b+1)*n/w]
		for i, x := range block {
			block[i] = sum
			sum += x
		}
	})
	return total
}
