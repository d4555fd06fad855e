package harness

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/core"
	tbl "repro/table"
)

// QueryPlan exercises the table package's lazy Query API over a mixed
// relation — an int64 walk under an imprint, a near-sorted int64 column
// under a zonemap, a uniform float64 under an imprint, and a string
// column under a code imprint — and reports, per predicate, the access
// path the planner chose (imprints probe, zonemap, or scan fallback —
// for leaves the histogram estimates unselective, and for leaves whose
// sampled imprint could prune nothing), the estimated selectivity and
// sampled residual share behind that choice, the candidate-block
// statistics, and the measured result. The two 30 % ranges are the
// contrast the second stage exists for: the same selectivity probes the
// clustered walk and scans the uniform column.
func QueryPlan(cfg Config) *Experiment {
	n := int(200_000 * cfg.Scale)
	if n < 4096 {
		n = 4096
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x9e7a))
	qty := make([]int64, n)
	ts := make([]int64, n)
	price := make([]float64, n)
	city := make([]string, n)
	vocab := []string{
		"amsterdam", "antwerp", "athens", "berlin", "bern", "lisbon",
		"london", "lyon", "madrid", "milan", "paris", "porto", "prague",
	}
	v := int64(10_000)
	w := int64(0)
	for i := 0; i < n; i++ {
		v += int64(rng.IntN(21)) - 10
		w += int64(rng.IntN(5))
		qty[i] = v
		ts[i] = w
		price[i] = rng.Float64() * 1000
		city[i] = vocab[(i/199+rng.IntN(2))%len(vocab)]
	}
	t := tbl.New("orders")
	must(tbl.AddColumn(t, "qty", qty, tbl.Imprints, core.Options{Seed: cfg.Seed}))
	must(tbl.AddColumn(t, "ts", ts, tbl.Zonemap, core.Options{}))
	must(tbl.AddColumn(t, "price", price, tbl.Imprints, core.Options{Seed: cfg.Seed + 1}))
	must(t.AddStringColumn("city", city, tbl.Imprints, core.Options{Seed: cfg.Seed + 2}))

	qtySorted := slices.Clone(qty)
	slices.Sort(qtySorted)
	preds := []struct {
		name string
		pred tbl.Predicate
	}{
		{"qty selective range", tbl.Range[int64]("qty", v-100, v+100)},
		{"qty unselective range", tbl.AtLeast[int64]("qty", v-1_000_000)},
		{"qty 30% range (walk)", tbl.Range[int64]("qty", qtySorted[n*35/100], qtySorted[n*65/100])},
		{"price 30% range (uniform)", tbl.Range[float64]("price", 350, 650)},
		{"ts zonemap range", tbl.Range[int64]("ts", w/4, w/2)},
		{"price point band", tbl.Range[float64]("price", 100, 120)},
		{"city prefix", tbl.StrPrefix("city", "p")},
		{"mixed conjunction", tbl.And(
			tbl.Range[int64]("qty", v-400, v+400),
			tbl.StrRange("city", "berlin", "madrid"),
			tbl.LessThan[float64]("price", 500),
		)},
	}

	header := []string{"predicate", "access", "est sel", "residual", "cand blocks", "exact", "probes", "rows", "time"}
	var rows [][]string
	for _, p := range preds {
		q := t.Select().Where(p.pred)
		plan, err := q.Explain()
		must(err)
		start := time.Now()
		ids, _, err := q.IDs()
		must(err)
		elapsed := time.Since(start)
		// For a single leaf report its access path; conjunctions report
		// the root op with each child's path.
		access, est, res := planAccess(plan.Root)
		rows = append(rows, []string{
			p.name, access, est, res,
			fmt.Sprintf("%d/%d", plan.Root.CandidateBlocks, plan.TotalBlocks),
			fmt.Sprintf("%d", plan.Root.ExactBlocks),
			fmt.Sprintf("%d", plan.Stats.Probes),
			fmt.Sprintf("%d", len(ids)),
			elapsed.Round(time.Microsecond).String(),
		})
	}
	return tabular("queryplan", "Query API: per-leaf access-path plans (EXPLAIN)", header, rows)
}

// planAccess summarizes a plan subtree's access paths and the two
// inputs of the choice: estimated selectivity and sampled residual.
func planAccess(n *tbl.PlanNode) (access, est, res string) {
	share := func(x float64) string {
		if x < 0 {
			return "-"
		}
		return fmt.Sprintf("%.3f", x)
	}
	if len(n.Children) == 0 {
		a := n.Access
		if n.Reason != "" {
			a += "(" + n.Reason + ")"
		}
		return a, share(n.Selectivity), share(n.Residual)
	}
	access = n.Op + "("
	for i, kid := range n.Children {
		if i > 0 {
			access += ","
		}
		ka, _, _ := planAccess(kid)
		access += ka
	}
	return access + ")", "-", "-"
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
