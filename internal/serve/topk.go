package serve

import "sort"

// scoreBefore orders entities for /query: score descending, NaN after every
// number, ties (±0 included) by entity ID ascending — a strict total order.
func scoreBefore(scores []float32, a, b int) bool {
	sa, sb := scores[a], scores[b]
	if sa == sb || (sa != sa && sb != sb) {
		return a < b
	}
	return sa > sb || sb != sb
}

// topK returns the min(k, |E|) first entities in scoreBefore's order, first
// first, from a heap of the best k so far whose root is the worst of them:
// O(|E| log k) instead of sorting all |E|.
func topK(scores []float32, k int) []int {
	k = min(k, len(scores))
	if k <= 0 {
		return nil
	}
	h := make([]int, 0, k)
	down := func(p int) { // restore the heap below p
		for {
			w := p
			for c := 2*p + 1; c <= 2*p+2 && c < len(h); c++ {
				if scoreBefore(scores, h[w], h[c]) {
					w = c
				}
			}
			if w == p {
				return
			}
			h[p], h[w] = h[w], h[p]
			p = w
		}
	}
	for e := range scores {
		if len(h) < k {
			if h = append(h, e); len(h) == k {
				for p := k/2 - 1; p >= 0; p-- {
					down(p)
				}
			}
		} else if scoreBefore(scores, e, h[0]) {
			h[0] = e
			down(0)
		}
	}
	sort.Slice(h, func(i, j int) bool { return scoreBefore(scores, h[i], h[j]) })
	return h
}
