package core

// Inter-column candidate-list operations (Section 4.2 sketches unions
// and differences applied directly to cacheline dictionaries; this file
// provides them over candidate run lists, which is the same granularity
// after query evaluation). Together with IntersectRuns they make
// arbitrary AND/OR/AND-NOT predicate trees evaluable before any value
// is materialized.

// UnionRunsInto merges two sorted candidate run lists, keeping
// cachelines present in either, and appends the result to dst, which
// must not alias a or b. A cacheline is Exact in the union if it is
// exact on at least one side (every value qualifies for that disjunct,
// hence for the disjunction).
func UnionRunsInto(dst, a, b []CandidateRun) []CandidateRun {
	out := dst
	push := func(start, count uint32, exact bool) {
		if count == 0 {
			return
		}
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.Exact == exact && last.Start+last.Count == start {
				last.Count += count
				return
			}
		}
		out = append(out, CandidateRun{Start: start, Count: count, Exact: exact})
	}
	// Sweep cacheline space in order, emitting segment by segment.
	i, j := 0, 0
	var cur uint32 // next cacheline not yet emitted
	for i < len(a) || j < len(b) {
		// Find the earliest run start at or after cur.
		switch {
		case i >= len(a):
			r := clip(b[j], cur)
			push(r.Start, r.Count, r.Exact)
			cur = r.Start + r.Count
			j++
		case j >= len(b):
			r := clip(a[i], cur)
			push(r.Start, r.Count, r.Exact)
			cur = r.Start + r.Count
			i++
		default:
			ra, rb := clip(a[i], cur), clip(b[j], cur)
			aEnd, bEnd := ra.Start+ra.Count, rb.Start+rb.Count
			if ra.Count == 0 {
				i++
				continue
			}
			if rb.Count == 0 {
				j++
				continue
			}
			if aEnd <= rb.Start {
				push(ra.Start, ra.Count, ra.Exact)
				cur = aEnd
				i++
				continue
			}
			if bEnd <= ra.Start {
				push(rb.Start, rb.Count, rb.Exact)
				cur = bEnd
				j++
				continue
			}
			// Overlapping. Emit the disjoint prefix, then the shared
			// piece with OR-ed exactness.
			lo := min(ra.Start, rb.Start)
			hi := max(ra.Start, rb.Start)
			if lo < hi {
				if ra.Start < rb.Start {
					push(lo, hi-lo, ra.Exact)
				} else {
					push(lo, hi-lo, rb.Exact)
				}
			}
			sharedEnd := min(aEnd, bEnd)
			push(hi, sharedEnd-hi, ra.Exact || rb.Exact)
			cur = sharedEnd
			if aEnd == sharedEnd {
				i++
			}
			if bEnd == sharedEnd {
				j++
			}
		}
	}
	return out
}

// clip trims the front of r so it starts at or after cur.
func clip(r CandidateRun, cur uint32) CandidateRun {
	if r.Start >= cur {
		return r
	}
	cut := cur - r.Start
	if cut >= r.Count {
		return CandidateRun{Start: cur, Count: 0, Exact: r.Exact}
	}
	return CandidateRun{Start: cur, Count: r.Count - cut, Exact: r.Exact}
}

// DiffRunsInto appends to dst, which must not alias a or b, the
// cachelines of a that may hold rows NOT excluded by b, for evaluating
// "P AND NOT Q" at cacheline granularity:
//
//   - cachelines of a absent from b survive unchanged;
//   - cachelines present in both survive as inexact (some rows may
//     match Q, so values must be re-checked) UNLESS b is exact there —
//     every row matches Q — in which case the cacheline is dropped.
func DiffRunsInto(dst, a, b []CandidateRun) []CandidateRun {
	out := dst
	push := func(start, count uint32, exact bool) {
		if count == 0 {
			return
		}
		if n := len(out); n > 0 {
			last := &out[n-1]
			if last.Exact == exact && last.Start+last.Count == start {
				last.Count += count
				return
			}
		}
		out = append(out, CandidateRun{Start: start, Count: count, Exact: exact})
	}
	j := 0
	for _, ra := range a {
		cur := ra.Start
		end := ra.Start + ra.Count
		for cur < end {
			// Advance b past runs that end before cur.
			for j < len(b) && b[j].Start+b[j].Count <= cur {
				j++
			}
			if j >= len(b) || b[j].Start >= end {
				// No overlap ahead within this run.
				push(cur, end-cur, ra.Exact)
				break
			}
			rb := b[j]
			if rb.Start > cur {
				push(cur, rb.Start-cur, ra.Exact)
				cur = rb.Start
			}
			ovEnd := min(end, rb.Start+rb.Count)
			if !rb.Exact {
				// Some rows of these cachelines may survive NOT Q.
				push(cur, ovEnd-cur, false)
			}
			cur = ovEnd
		}
	}
	return out
}
