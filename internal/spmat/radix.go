package spmat

// The package's one sort: a least-significant-digit radix sort of
// uint64 keys, optionally carrying a value per key. Callers compact
// their keys to the bits the ids in use need, so a sort takes
// ceil(width/12) passes of balanced digits whose counters stay in
// L1/L2; one read of the keys tallies every pass, and a pass whose
// digit is constant is skipped.

// radixDigitMax bounds a digit's width in bits.
const radixDigitMax = 12

// radixSort holds the histograms of one sort, which the next sort
// reuses.
type radixSort struct {
	hist [][1 << radixDigitMax]int // one histogram per pass
}

// sort orders keys, every one below 1<<width, ascending and stably,
// permuting vals alongside when vals is non-nil. ktmp (and vtmp, when
// vals is non-nil) are scratch of len(keys). It returns the sorted keys
// and values, each of which is either the input or the scratch slice.
func (r *radixSort) sort(width uint, keys, ktmp, vals, vtmp []uint64) ([]uint64, []uint64) {
	passes := int((width + radixDigitMax - 1) / radixDigitMax)
	if passes == 0 {
		return keys, vals
	}
	digit := (width + uint(passes) - 1) / uint(passes)
	mask := uint64(1)<<digit - 1
	if cap(r.hist) < passes {
		r.hist = make([][1 << radixDigitMax]int, passes)
	}
	hist := r.hist[:passes]
	for p := range hist {
		clear(hist[p][:1<<digit])
	}
	for _, k := range keys {
		for p := range hist {
			hist[p][k>>(uint(p)*digit)&mask&(1<<radixDigitMax-1)]++
		}
	}
	n := len(keys)
	for p := range hist {
		h := &hist[p]
		shift := uint(p) * digit
		if n == 0 || h[keys[0]>>shift&mask&(1<<radixDigitMax-1)] == n {
			continue // one digit value: this pass would not move a key
		}
		sum := 0
		for d, c := range h[:1<<digit] {
			h[d] = sum
			sum += c
		}
		ktmp = ktmp[:n]
		if vals == nil {
			for _, k := range keys {
				d := k >> shift & mask & (1<<radixDigitMax - 1)
				ktmp[h[d]] = k
				h[d]++
			}
		} else {
			vtmp = vtmp[:n]
			for i, k := range keys {
				d := k >> shift & mask & (1<<radixDigitMax - 1)
				ktmp[h[d]] = k
				vtmp[h[d]] = vals[i]
				h[d]++
			}
			vals, vtmp = vtmp, vals
		}
		keys, ktmp = ktmp, keys
	}
	return keys, vals
}
