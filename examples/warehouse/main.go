// Warehouse: the paper's update story (Section 4) on an Airtraffic-
// style workload, driven through the Table/Query API — monthly batch
// appends extend the imprint without touching existing vectors, carrier
// codes live in a dictionary-encoded string column, point updates widen
// the covering vectors until the saturation heuristic fires, Maintain
// rebuilds, and the whole table round-trips through its binary
// serialization for reuse across restarts.
package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"

	imprints "repro"
	"repro/table"
)

var carriers = []string{"AA", "AF", "BA", "DL", "KL", "LH", "UA", "US", "WN"}

func main() {
	rng := rand.New(rand.NewPCG(11, 13))

	// Month 0 load: delay minutes (skewed around small values) plus the
	// operating carrier.
	delay := genMonth(rng, nil, 200_000)
	carrier := genCarriers(rng, nil, 200_000)
	tb := table.New("airtraffic")
	must(table.AddColumn(tb, "delay", delay, table.Imprints, imprints.Options{Seed: 5}))
	must(tb.AddStringColumn("carrier", carrier, table.Imprints, imprints.Options{Seed: 6}))
	stats, err := tb.IndexStats("delay")
	must(err)
	fmt.Printf("initial load: %d rows in %d segments, %d stored vectors\n",
		tb.Rows(), stats.Segments, stats.StoredVectors)

	// Twelve monthly appends (Section 4.1): rows land in the active
	// tail segment, sealing it and opening fresh ones as it fills — no
	// sealed segment's vectors ever change.
	for m := 1; m <= 12; m++ {
		b := tb.NewBatch()
		must(table.Append(b, "delay", genMonth(rng, nil, 200_000)))
		must(b.AppendStrings("carrier", genCarriers(rng, nil, 200_000)))
		must(b.Commit())
	}
	stats, err = tb.IndexStats("delay")
	must(err)
	fmt.Printf("after 12 appends: %d rows in %d segments, %d stored vectors, mean saturation %.3f\n",
		tb.Rows(), stats.Segments, stats.StoredVectors, stats.Saturation)

	// Query: heavily delayed KLM flights. Explain shows both leaves
	// probing their imprints (the string leaf through its code range).
	pred := table.And(
		table.AtLeast[int16]("delay", 180),
		table.StrEquals("carrier", "KL"),
	)
	plan, err := tb.Select("delay", "carrier").Where(pred).Explain()
	must(err)
	fmt.Printf("\n%s\n", plan)

	// The aggregates run inside the segment workers: count, worst and
	// mean delay in one pass, no ids materialized.
	agg, st, err := tb.Select().Where(pred).Aggregate(
		table.CountAll(), table.Max("delay"), table.Avg("delay"))
	must(err)
	fmt.Printf("delay >= 180min on KL: %d flights, worst %dmin, mean %.0fmin (%d cachelines skipped)\n",
		agg.Int(0), agg.Int(1), agg.Float(2), st.CachelinesSkipped)

	// Grouped: the same heavy-delay band broken down per carrier, keyed
	// on the dictionary-encoded string column (per-segment codes are
	// remapped to carrier names at merge).
	grp, _, err := tb.Select().Where(table.AtLeast[int16]("delay", 180)).
		GroupBy("carrier").Aggregate(table.CountAll(), table.Avg("delay"))
	must(err)
	fmt.Printf("heavy delays per carrier:")
	for _, g := range grp.Groups {
		fmt.Printf(" %s=%d(%.0fmin)", g.Key, g.Rows, g.Aggs[1].Float)
	}
	fmt.Println()

	// Top-k: the three worst delays overall, via per-segment bounded
	// heaps — no full sort, no full materialization.
	fmt.Printf("worst delays:")
	for id, row := range tb.Select("delay", "carrier").OrderBy(table.Desc("delay")).Limit(3).Rows() {
		fmt.Printf(" #%d %vmin on %v", id, row.Get("delay"), row.Get("carrier"))
	}
	fmt.Println()
	fmt.Println()

	// In-place corrections (Section 4.2): each covering segment imprint
	// absorbs updates by widening vectors — at the cost of saturation.
	before := stats.Saturation
	for u := 0; u < 1_200_000; u++ {
		id := rng.IntN(tb.Rows())
		must(table.Update(tb, "delay", id, int16(rng.IntN(600)-60)))
	}
	stats, err = tb.IndexStats("delay")
	must(err)
	fmt.Printf("mean saturation after in-place marking: %.3f -> %.3f\n",
		before, stats.Saturation)

	// Maintain applies the rebuild heuristic segment by segment; this
	// workload rebuilds at a stricter saturation limit than the 0.5
	// default, and only the saturated segments are rebuilt.
	rep := tb.Maintain(table.MaintainOptions{SaturationLimit: 0.25})
	fmt.Printf("maintenance: %s\n", rep)
	stats, err = tb.IndexStats("delay")
	must(err)
	fmt.Printf("mean saturation after rebuild: %.3f\n\n", stats.Saturation)

	// Persist and reload the whole table (indexes travel along).
	var buf bytes.Buffer
	must(tb.Write(&buf))
	serialized := buf.Len()
	loaded, err := table.Read(&buf)
	must(err)
	a, _, err := tb.Select().Where(pred).IDs()
	must(err)
	b, _, err := loaded.Select().Where(pred).IDs()
	must(err)
	fmt.Printf("serialized %d bytes; reloaded table agrees on %d results: %v\n",
		serialized, len(a), len(a) == len(b))
}

// genMonth appends one month of skewed delay data to col.
func genMonth(rng *rand.Rand, col []int16, rows int) []int16 {
	for i := 0; i < rows; i++ {
		d := rng.NormFloat64()*12 - 3
		if rng.IntN(20) == 0 {
			d += float64(rng.IntN(300))
		}
		if d < -60 {
			d = -60
		}
		col = append(col, int16(d))
	}
	return col
}

// genCarriers appends one month of carrier codes, in bursts (flights
// cluster by airline in the log, which the code imprint exploits).
func genCarriers(rng *rand.Rand, col []string, rows int) []string {
	for i := 0; i < rows; i++ {
		col = append(col, carriers[(i/256+rng.IntN(2))%len(carriers)])
	}
	return col
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
