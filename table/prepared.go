package table

import (
	"fmt"
	"sort"
	"strings"
)

// Prepared is a compile-once predicate plan over one table: Prepare
// validates every leaf's column and type up front and translates each
// placeholder-free leaf exactly once; executions then skip straight to
// per-segment evaluation. Placeholder leaves (Param/StrParam bounds)
// are translated once per execution from the values supplied with Bind.
//
// A Prepared statement is safe for concurrent executions: each Bind or
// Exec call starts an independent *Query carrying its own bindings, and
// the shared compiled tree is immutable. Storage-shape tracking is
// segment-granular: compiled plans resolve the column's segments live
// at execution time, and string-dictionary translations are cached per
// segment keyed by that segment's generation — so batch appends (which
// only extend the active tail or open new segments), segment-local
// index rebuilds and even whole-table compactions never require
// recompiling the statement, and sealed segments keep their cached
// translations across executions. Only the data-dependent access-path
// choice — per segment, the estimated selectivity and then the sampled
// residual share of the bound predicate against
// SelectOptions.ScanThreshold, and segment pruning — is re-resolved
// every time.
//
// The serving loop looks like:
//
//	pred := table.And(
//	    table.RangeP("qty", table.Param[int64]("lo"), table.Param[int64]("hi")),
//	    table.EqualsP("city", table.StrParam("city")),
//	)
//	p, err := t.Prepare(pred, table.SelectOptions{})
//	...
//	ids, _, err := p.Bind("lo", int64(40)).Bind("hi", int64(90)).
//	    Bind("city", "Berlin").IDs()
//
// Executions are full Queries, so the aggregation pipeline composes
// with prepared statements too: bind the parameters, then finish with
// Aggregate, GroupBy(...).Aggregate, or OrderBy(...).Limit(k).
type Prepared struct {
	t      *Table
	opts   SelectOptions
	cols   []string
	params map[string]*paramInfo
	// parts holds the statement compiled against each of the table's
	// parts — its shards, or the table itself — whose compiled and
	// static fields are set; each execution binds every part's own
	// compilation, so per-segment dictionary caches stay part-local.
	parts    []*Prepared
	compiled *compiledNode // nil for a match-everything statement
	// static is the execution tree of a placeholder-free statement,
	// bound once at Prepare time and shared by every execution (it is
	// immutable — plans resolve segment state live), so steady-state
	// executions skip the per-execution tree build entirely.
	static *execNode
}

// paramInfo records how one named placeholder is used across the tree,
// so Bind can type-check values before any execution runs.
type paramInfo struct {
	typ  string         // declared value type ("int64", "string", ...)
	list bool           // used in an InP position: binds to a slice
	ok   func(any) bool // dynamic type check for a candidate value
}

func (pi *paramInfo) want() string {
	if pi.list {
		return "[]" + pi.typ
	}
	return pi.typ
}

// Prepare validates a predicate tree against the table and compiles it
// into a reusable plan (see Prepared). A nil predicate prepares a
// match-everything statement. opts fixes the statement's default
// evaluation options; individual executions may override them with
// Query.Options.
func (t *Table) Prepare(pred Predicate, opts SelectOptions) (*Prepared, error) {
	kids := t.parts()
	p := &Prepared{t: t, opts: opts, parts: make([]*Prepared, len(kids))}
	for c, kid := range kids {
		kp, err := kid.compileStatement(pred)
		if err != nil {
			return nil, err
		}
		p.parts[c] = kp
	}
	p.params = p.parts[0].params
	return p, nil
}

// compileStatement compiles the statement against one part.
func (t *Table) compileStatement(pred Predicate) (*Prepared, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p := &Prepared{t: t}
	if pred != nil {
		params, err := collectParams(pred)
		if err != nil {
			return nil, fmt.Errorf("table %s: %w", t.name, err)
		}
		p.params = params
		cn, err := t.compile(pred)
		if err != nil {
			return nil, err
		}
		p.compiled = cn
		if len(p.params) == 0 {
			if p.static, err = t.bindTree(cn, nil); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// Select sets the default projection of future executions (no names
// means every column, as with Table.Select). Configure the statement
// before sharing it across goroutines; per-execution changes belong on
// the Query side.
func (p *Prepared) Select(cols ...string) *Prepared {
	p.cols = append([]string(nil), cols...)
	return p
}

// Params lists the statement's placeholder names, sorted.
func (p *Prepared) Params() []string {
	names := make([]string, 0, len(p.params))
	for name := range p.params {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Exec starts one execution of the statement: an independent *Query
// whose Rows/IDs/Count/Explain run the compiled plan. Statements with
// placeholders need every parameter bound (Bind) before executing.
func (p *Prepared) Exec() *Query {
	return &Query{t: p.t, cols: append([]string(nil), p.cols...), prep: p, opts: p.opts}
}

// Bind starts an execution with one parameter bound; chain further Bind
// calls and finish with Rows, IDs, Count or Explain.
func (p *Prepared) Bind(name string, v any) *Query {
	return p.Exec().Bind(name, v)
}

// checkBind validates one candidate binding against the placeholder's
// declared type.
func (p *Prepared) checkBind(name string, v any) error {
	info, ok := p.params[name]
	if !ok {
		return fmt.Errorf("table %s: no parameter $%s in prepared predicate (have %v)", p.t.name, name, p.Params())
	}
	if !info.ok(v) {
		return fmt.Errorf("table %s: parameter $%s wants %s, got %T", p.t.name, name, info.want(), v)
	}
	return nil
}

// checkBinds verifies that every placeholder has a value.
func (p *Prepared) checkBinds(binds map[string]any) error {
	if len(binds) == len(p.params) {
		return nil
	}
	var missing []string
	for name := range p.params {
		if _, ok := binds[name]; !ok {
			missing = append(missing, "$"+name)
		}
	}
	sort.Strings(missing)
	return fmt.Errorf("table %s: unbound parameters: %s", p.t.name, strings.Join(missing, ", "))
}

// bindLocked resolves one execution of the prepared plan down to an
// execution tree (nil for match-everything); the caller holds the
// table's read lock (all executions enter through Query's executors).
func (p *Prepared) bindLocked(binds map[string]any) (*execNode, error) {
	if err := p.checkBinds(binds); err != nil {
		return nil, err
	}
	if p.static != nil {
		return p.static, nil
	}
	if p.compiled == nil {
		return nil, nil
	}
	return p.t.bindTree(p.compiled, binds)
}

// collectParams walks a predicate tree and gathers its placeholders,
// rejecting a name used with conflicting types or positions.
func collectParams(pred Predicate) (map[string]*paramInfo, error) {
	params := map[string]*paramInfo{}
	var walk func(p Predicate) error
	note := func(x any, inList bool) error {
		b, ok := x.(Bound)
		if !ok || b.name == "" {
			return nil
		}
		okFn := b.scalarOK
		if inList {
			okFn = b.listOK
		}
		want := &paramInfo{typ: b.typ, list: inList, ok: okFn}
		if have, dup := params[b.name]; dup {
			if have.typ != want.typ || have.list != want.list {
				return fmt.Errorf("parameter $%s used as both %s and %s", b.name, have.want(), want.want())
			}
			return nil
		}
		params[b.name] = want
		return nil
	}
	walk = func(p Predicate) error {
		switch node := p.(type) {
		case *leafPred:
			if err := note(node.low, node.kind == kindIn); err != nil {
				return err
			}
			return note(node.high, false)
		case *andPred:
			for _, kid := range node.kids {
				if err := walk(kid); err != nil {
					return err
				}
			}
		case *orPred:
			for _, kid := range node.kids {
				if err := walk(kid); err != nil {
					return err
				}
			}
		case *andNotPred:
			if err := walk(node.p); err != nil {
				return err
			}
			return walk(node.q)
		}
		return nil
	}
	if err := walk(pred); err != nil {
		return nil, err
	}
	return params, nil
}
