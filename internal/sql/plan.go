package sql

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/coltype"
	"repro/table"
)

// stmtKind selects the execution shape of a compiled statement.
type stmtKind int

const (
	kindRows  stmtKind = iota // plain projection, optional order/limit
	kindAgg                   // whole-result aggregation
	kindGroup                 // grouped aggregation
)

// ParamInfo describes one placeholder of a compiled statement.
type ParamInfo struct {
	Name string `json:"name"`
	Type string `json:"type"` // bound value type: "int64", "[]string", ...
}

// paramConv converts a raw bind value (native Go or decoded JSON) to
// the exact dynamic type the prepared statement requires.
type paramConv struct {
	typ  string
	list bool
	conv func(v any) (any, error)
}

func (pc *paramConv) want() string {
	if pc.list {
		return "[]" + pc.typ
	}
	return pc.typ
}

// Statement is one compiled SQL statement bound to a table: the parsed
// AST planned onto a table.Prepared plus the projection / aggregation /
// ordering shape around it. A Statement is immutable after Compile and
// safe for concurrent Exec calls — the server caches them by normalized
// query text.
type Statement struct {
	SQL    string // normalized text (cache key)
	ast    *SelectStmt
	tbl    *table.Table
	prep   *table.Prepared
	kind   stmtKind
	cols   []string // result column headers, in projection order
	aggs   []table.AggSpec
	order  *table.OrderSpec
	limit  int // -1 when absent
	group  string
	params map[string]*paramConv
}

// Params lists the statement's placeholders sorted by name.
func (s *Statement) Params() []ParamInfo {
	out := make([]ParamInfo, 0, len(s.params))
	for name, pc := range s.params {
		out = append(out, ParamInfo{Name: name, Type: pc.want()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Table returns the name of the table the statement was compiled for.
func (s *Statement) Table() string { return s.tbl.Name() }

// Compile parses src and plans it onto t's native query API. The
// returned statement has prepared (and type-checked) every predicate
// leaf; executions only bind placeholder values. All errors are
// *ParseError values positioned in the query text.
func Compile(t *table.Table, src string) (*Statement, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return compileAST(t, ast, Normalize(src))
}

func compileAST(t *table.Table, ast *SelectStmt, normalized string) (*Statement, error) {
	if ast.Table != t.Name() {
		return nil, errAt(ast.TablePos, "unknown table %q (serving %q)", ast.Table, t.Name())
	}
	s := &Statement{SQL: normalized, ast: ast, tbl: t, limit: ast.Limit, params: map[string]*paramConv{}}

	var pred table.Predicate
	if ast.Where != nil {
		var err error
		pred, err = s.rewrite(ast.Where, false)
		if err != nil {
			return nil, err
		}
	}
	if err := s.planProjection(); err != nil {
		return nil, err
	}

	prep, err := t.Prepare(pred, table.SelectOptions{})
	if err != nil {
		// Planner checks above should have caught everything positioned;
		// anchor residual table-layer complaints at the statement start.
		return nil, errAt(1, "%v", err)
	}
	if s.kind == kindRows {
		prep.Select(s.cols...)
	}
	s.prep = prep
	return s, nil
}

// planProjection resolves the projection into the statement's execution
// shape: plain rows, whole-result aggregation, or grouped aggregation.
func (s *Statement) planProjection() error {
	ast := s.ast
	t := s.tbl
	if ast.Group != "" {
		s.kind = kindGroup
		s.group = ast.Group
		if ast.Star {
			return errAt(ast.GroupPos, "SELECT * does not combine with GROUP BY; project the key and aggregates")
		}
		if ast.Order != nil {
			return errAt(ast.Order.Pos, "ORDER BY does not combine with GROUP BY")
		}
		if ast.Limit >= 0 {
			return errAt(ast.LimitPos, "LIMIT does not combine with GROUP BY")
		}
		keyType, err := t.ColumnType(ast.Group)
		if err != nil {
			return errAt(ast.GroupPos, "no column %q in table %q", ast.Group, t.Name())
		}
		if strings.HasPrefix(keyType, "float") {
			return errAt(ast.GroupPos, "GROUP BY key %q is %s: keys must be integer or string columns", ast.Group, keyType)
		}
		for _, c := range ast.Cols {
			if c.Name != ast.Group {
				return errAt(c.Pos, "column %q must appear in GROUP BY or inside an aggregate", c.Name)
			}
		}
		if err := s.planAggs(); err != nil {
			return err
		}
		s.cols = s.projHeaders()
		return nil
	}
	if len(ast.Aggs) > 0 {
		s.kind = kindAgg
		if len(ast.Cols) > 0 {
			return errAt(ast.Cols[0].Pos, "column %q must appear in GROUP BY or inside an aggregate", ast.Cols[0].Name)
		}
		if ast.Order != nil {
			return errAt(ast.Order.Pos, "ORDER BY does not apply to an aggregate result")
		}
		if err := s.planAggs(); err != nil {
			return err
		}
		s.cols = s.projHeaders()
		return nil
	}
	s.kind = kindRows
	if ast.Star {
		s.cols = t.Columns()
	} else {
		s.cols = make([]string, len(ast.Cols))
		for i, c := range ast.Cols {
			if _, err := t.ColumnType(c.Name); err != nil {
				return errAt(c.Pos, "no column %q in table %q", c.Name, t.Name())
			}
			s.cols[i] = c.Name
		}
	}
	if ast.Order != nil {
		if _, err := t.ColumnType(ast.Order.Col); err != nil {
			return errAt(ast.Order.Pos, "no column %q in table %q", ast.Order.Col, t.Name())
		}
		var o table.OrderSpec
		if ast.Order.Desc {
			o = table.Desc(ast.Order.Col)
		} else {
			o = table.Asc(ast.Order.Col)
		}
		s.order = &o
	}
	return nil
}

// planAggs validates the aggregate projections and builds their specs.
func (s *Statement) planAggs() error {
	for _, a := range s.ast.Aggs {
		if a.Star { // count(*)
			s.aggs = append(s.aggs, table.CountAll())
			continue
		}
		typ, err := s.tbl.ColumnType(a.Col)
		if err != nil {
			return errAt(a.Pos, "no column %q in table %q", a.Col, s.tbl.Name())
		}
		switch a.Fn {
		case "sum", "avg":
			if typ == "string" {
				return errAt(a.Pos, "%s(%s): column is a string; sum and avg need numeric columns", a.Fn, a.Col)
			}
		}
		switch a.Fn {
		case "sum":
			s.aggs = append(s.aggs, table.Sum(a.Col))
		case "avg":
			s.aggs = append(s.aggs, table.Avg(a.Col))
		case "min":
			s.aggs = append(s.aggs, table.Min(a.Col))
		case "max":
			s.aggs = append(s.aggs, table.Max(a.Col))
		default:
			return errAt(a.Pos, "unsupported aggregate %q", a.Fn)
		}
	}
	return nil
}

// projHeaders renders the result column headers in source projection
// order: plain column names and "fn(col)" / "count(*)" labels.
func (s *Statement) projHeaders() []string {
	out := make([]string, len(s.ast.Proj))
	for i, p := range s.ast.Proj {
		if p.IsAgg {
			a := s.ast.Aggs[p.Index]
			if a.Star {
				out[i] = "count(*)"
			} else {
				out[i] = a.Fn + "(" + a.Col + ")"
			}
		} else {
			out[i] = s.ast.Cols[p.Index].Name
		}
	}
	return out
}

// ---- WHERE rewriting ----

// negOp maps each comparison operator to its negation, so NOT pushes
// down to the leaves (De Morgan for AND/OR, operator flip here).
var negOp = map[string]string{
	"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">",
}

// rewrite lowers a WHERE expression to a table predicate, pushing any
// enclosing NOT down into the leaves. Float columns follow SQL
// comparison semantics except that NaN never matches any operator,
// including '!=' (the rewrite expresses '!=' through ordered
// comparisons, which NaN fails).
func (s *Statement) rewrite(e Expr, neg bool) (table.Predicate, error) {
	switch node := e.(type) {
	case *NotExpr:
		return s.rewrite(node.Kid, !neg)
	case *BoolExpr:
		kids := make([]table.Predicate, len(node.Kids))
		for i, k := range node.Kids {
			p, err := s.rewrite(k, neg)
			if err != nil {
				return nil, err
			}
			kids[i] = p
		}
		op := node.Op
		if neg { // De Morgan
			if op == "and" {
				op = "or"
			} else {
				op = "and"
			}
		}
		if op == "and" {
			return table.And(kids...), nil
		}
		return table.Or(kids...), nil
	case *CmpExpr:
		op := node.Op
		if neg {
			op = negOp[op]
		}
		return s.cmpLeaf(node, op)
	case *InExpr:
		if node.Neg || neg {
			return nil, errAt(node.Pos, "NOT IN is not supported; rewrite with != and AND")
		}
		return s.inLeaf(node)
	case *LikeExpr:
		if node.Neg || neg {
			return nil, errAt(node.Pos, "NOT LIKE is not supported")
		}
		return s.likeLeaf(node)
	}
	return nil, errAt(e.pos(), "unsupported expression")
}

// cmpLeaf lowers one comparison to predicate leaves. The native leaves
// are >= (AtLeast), < (LessThan) and = (Equals); the other operators
// compose them:
//
//	>   ⇒ AtLeast AND NOT Equals
//	<=  ⇒ LessThan OR Equals
//	!=  ⇒ LessThan OR (AtLeast AND NOT Equals)
func (s *Statement) cmpLeaf(node *CmpExpr, op string) (table.Predicate, error) {
	ops, err := s.colOps(node.Col, node.ColPos)
	if err != nil {
		return nil, err
	}
	b, err := s.bound(ops, node.Val, false)
	if err != nil {
		return nil, err
	}
	col := node.Col
	switch op {
	case "=":
		return table.EqualsP(col, b), nil
	case "<":
		return table.LessThanP(col, b), nil
	case ">=":
		return table.AtLeastP(col, b), nil
	case ">":
		return table.AndNot(table.AtLeastP(col, b), table.EqualsP(col, b)), nil
	case "<=":
		return table.Or(table.LessThanP(col, b), table.EqualsP(col, b)), nil
	case "!=":
		return table.Or(
			table.LessThanP(col, b),
			table.AndNot(table.AtLeastP(col, b), table.EqualsP(col, b)),
		), nil
	}
	return nil, errAt(node.Pos, "unsupported operator %q", op)
}

// inLeaf lowers IN: a literal list becomes a translated-once In leaf, a
// $placeholder becomes an InP leaf binding the whole list per execution.
func (s *Statement) inLeaf(node *InExpr) (table.Predicate, error) {
	ops, err := s.colOps(node.Col, node.ColPos)
	if err != nil {
		return nil, err
	}
	if node.Param != "" {
		b := ops.param(node.Param)
		if err := s.noteParam(node.Param, ops, true, node.Pos); err != nil {
			return nil, err
		}
		return table.InP(node.Col, b), nil
	}
	for _, o := range node.Vals {
		if o.Kind == opParam {
			return nil, errAt(o.Pos, "IN lists mix no placeholders; bind the whole list with IN $%s", o.Str)
		}
	}
	return ops.inLits(node.Col, node.Vals)
}

// likeLeaf lowers LIKE: only literal prefix patterns 'abc%' (a single
// trailing '%', no '_' wildcards) are supported, mapping to the
// dictionary-range StrPrefix leaf.
func (s *Statement) likeLeaf(node *LikeExpr) (table.Predicate, error) {
	typ, err := s.tbl.ColumnType(node.Col)
	if err != nil {
		return nil, errAt(node.ColPos, "no column %q in table %q", node.Col, s.tbl.Name())
	}
	if typ != "string" {
		return nil, errAt(node.Pos, "LIKE needs a string column; %q is %s", node.Col, typ)
	}
	pat := node.Pattern
	if !strings.HasSuffix(pat, "%") {
		return nil, errAt(node.Pos, "only prefix patterns are supported: LIKE 'abc%%'")
	}
	prefix := pat[:len(pat)-1]
	if strings.ContainsAny(prefix, "%_") {
		return nil, errAt(node.Pos, "only a single trailing %% wildcard is supported")
	}
	return table.StrPrefix(node.Col, prefix), nil
}

// bound turns one operand into a typed table.Bound for the column.
func (s *Statement) bound(ops *typeOps, o Operand, list bool) (table.Bound, error) {
	if o.Kind == opParam {
		if err := s.noteParam(o.Str, ops, list, o.Pos); err != nil {
			return table.Bound{}, err
		}
		return ops.param(o.Str), nil
	}
	return ops.lit(o)
}

// noteParam records a placeholder's required type, rejecting one name
// used at conflicting types or positions.
func (s *Statement) noteParam(name string, ops *typeOps, list bool, pos int) error {
	want := &paramConv{typ: ops.typ, list: list}
	if list {
		want.conv = ops.convList
	} else {
		want.conv = ops.conv
	}
	if have, dup := s.params[name]; dup {
		if have.typ != want.typ || have.list != want.list {
			return errAt(pos, "placeholder $%s used as both %s and %s", name, have.want(), want.want())
		}
		return nil
	}
	s.params[name] = want
	return nil
}

// colOps resolves a column to its type-specific operand handling.
func (s *Statement) colOps(col string, pos int) (*typeOps, error) {
	typ, err := s.tbl.ColumnType(col)
	if err != nil {
		return nil, errAt(pos, "no column %q in table %q", col, s.tbl.Name())
	}
	ops, ok := opsByType[typ]
	if !ok {
		return nil, errAt(pos, "column %q has unsupported type %s", col, typ)
	}
	return ops, nil
}

// ---- typed operand handling ----

// typeOps adapts one column value type: literal operands to Bounds,
// placeholder Bounds, literal IN lists, and bind-value conversion.
type typeOps struct {
	typ      string
	lit      func(o Operand) (table.Bound, error)
	param    func(name string) table.Bound
	inLits   func(col string, os []Operand) (table.Predicate, error)
	conv     func(v any) (any, error) // raw bind value -> scalar
	convList func(v any) (any, error) // raw bind value -> slice
}

var opsByType = map[string]*typeOps{
	"int8": numOps[int8](), "int16": numOps[int16](), "int32": numOps[int32](), "int64": numOps[int64](),
	"uint8": numOps[uint8](), "uint16": numOps[uint16](), "uint32": numOps[uint32](), "uint64": numOps[uint64](),
	"float32": numOps[float32](), "float64": numOps[float64](),
	"string": strOps(),
}

// numOps builds the adapter for a numeric column type, with exact
// range checks when narrowing literals and bind values.
func numOps[V coltype.Value]() *typeOps {
	typ := coltype.TypeName[V]()
	isFloat := coltype.IsFloat[V]()
	var zero V
	unsigned := zero-1 > zero
	fit := func(o Operand) (V, error) {
		switch o.Kind {
		case opInt:
			if unsigned && o.Int < 0 {
				return zero, errAt(o.Pos, "value %d out of range for %s column", o.Int, typ)
			}
			v := V(o.Int)
			if !isFloat && int64(v) != o.Int {
				return zero, errAt(o.Pos, "value %d out of range for %s column", o.Int, typ)
			}
			return v, nil
		case opFloat:
			if !isFloat {
				return zero, errAt(o.Pos, "float literal %v on %s column", o.Flt, typ)
			}
			return V(o.Flt), nil
		case opString:
			return zero, errAt(o.Pos, "string literal on %s column", typ)
		}
		return zero, errAt(o.Pos, "internal: unexpected operand")
	}
	convScalar := func(x any) (any, error) {
		switch v := x.(type) {
		case V:
			return v, nil
		case json.Number:
			if isFloat {
				f, err := v.Float64()
				if err != nil {
					return nil, fmt.Errorf("wants %s, got %q", typ, v.String())
				}
				return V(f), nil
			}
			// Unsigned first, so a uint64 above MaxInt64 binds; a
			// negative falls through to the signed path's range error.
			if unsigned {
				if u, err := strconv.ParseUint(v.String(), 10, 64); err == nil {
					return fitUint[V](u, typ)
				}
			}
			i, err := v.Int64()
			if err != nil {
				return nil, fmt.Errorf("wants %s, got %q", typ, v.String())
			}
			return fitInt[V](i, typ, unsigned)
		case int64:
			if isFloat {
				return V(v), nil
			}
			return fitInt[V](v, typ, unsigned)
		case int:
			if isFloat {
				return V(v), nil
			}
			return fitInt[V](int64(v), typ, unsigned)
		case float64:
			if isFloat {
				return V(v), nil
			}
			return nil, fmt.Errorf("wants %s, got float %v", typ, v)
		}
		return nil, fmt.Errorf("wants %s, got %T", typ, x)
	}
	return &typeOps{
		typ: typ,
		lit: func(o Operand) (table.Bound, error) {
			v, err := fit(o)
			if err != nil {
				return table.Bound{}, err
			}
			return table.Val(v), nil
		},
		param: func(name string) table.Bound { return table.Param[V](name) },
		inLits: func(col string, os []Operand) (table.Predicate, error) {
			vals := make([]V, len(os))
			for i, o := range os {
				v, err := fit(o)
				if err != nil {
					return nil, err
				}
				vals[i] = v
			}
			return table.In(col, vals...), nil
		},
		conv: convScalar,
		convList: func(x any) (any, error) {
			switch v := x.(type) {
			case []V:
				return v, nil
			case []any:
				out := make([]V, len(v))
				for i, e := range v {
					c, err := convScalar(e)
					if err != nil {
						return nil, fmt.Errorf("element %d: %w", i, err)
					}
					out[i] = c.(V)
				}
				return out, nil
			}
			return nil, fmt.Errorf("wants a []%s list, got %T", typ, x)
		},
	}
}

// strOps builds the adapter for string columns.
func strOps() *typeOps {
	convScalar := func(x any) (any, error) {
		if v, ok := x.(string); ok {
			return v, nil
		}
		return nil, fmt.Errorf("wants string, got %T", x)
	}
	return &typeOps{
		typ: "string",
		lit: func(o Operand) (table.Bound, error) {
			if o.Kind != opString {
				return table.Bound{}, errAt(o.Pos, "numeric literal on string column")
			}
			return table.StrVal(o.Str), nil
		},
		param: table.StrParam,
		inLits: func(col string, os []Operand) (table.Predicate, error) {
			vals := make([]string, len(os))
			for i, o := range os {
				if o.Kind != opString {
					return nil, errAt(o.Pos, "numeric literal on string column")
				}
				vals[i] = o.Str
			}
			return table.StrIn(col, vals...), nil
		},
		conv: convScalar,
		convList: func(x any) (any, error) {
			switch v := x.(type) {
			case []string:
				return v, nil
			case []any:
				out := make([]string, len(v))
				for i, e := range v {
					c, err := convScalar(e)
					if err != nil {
						return nil, fmt.Errorf("element %d: %w", i, err)
					}
					out[i] = c.(string)
				}
				return out, nil
			}
			return nil, fmt.Errorf("wants a []string list, got %T", x)
		},
	}
}

// fitInt narrows an int64 bind value into V with an exact range check.
func fitInt[V coltype.Value](i int64, typ string, unsigned bool) (any, error) {
	if unsigned && i < 0 {
		return nil, fmt.Errorf("value %d out of range for %s", i, typ)
	}
	v := V(i)
	if int64(v) != i {
		return nil, fmt.Errorf("value %d out of range for %s", i, typ)
	}
	return v, nil
}

// fitUint narrows a uint64 bind value into an unsigned V with an exact
// range check.
func fitUint[V coltype.Value](u uint64, typ string) (any, error) {
	v := V(u)
	if uint64(v) != u {
		return nil, fmt.Errorf("value %d out of range for %s", u, typ)
	}
	return v, nil
}
