package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/table"
)

// POST /insert commits one column-major batch into the served table:
// the body carries one JSON array per column, all the same length, and
// the response is sent only after the batch is committed — with a WAL
// attached, only after it is durable under the configured fsync
// policy. Inserts share the query worker pool, so admission control
// and backlog shedding apply to writes exactly as to reads.

// InsertRequest is the POST /insert body.
type InsertRequest struct {
	// Columns maps column name to its new values, column-major. Every
	// table column must be present and all arrays must agree on length.
	Columns map[string][]any `json:"columns"`
}

// InsertResponse is the POST /insert success body.
type InsertResponse struct {
	Rows      int   `json:"rows"`       // rows committed by this request
	TotalRows int   `json:"total_rows"` // table rows after the commit
	ElapsedUs int64 `json:"elapsed_us"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		s.counters.errors.Add(1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if len(req.Columns) == 0 {
		s.counters.errors.Add(1)
		writeError(w, http.StatusBadRequest, errors.New("empty insert: no columns"))
		return
	}
	if limit := s.cfg.MaxShardBacklog; limit > 0 {
		if depth := s.tbl.MaxShardDeltaRows(); depth > limit {
			s.counters.rejected.Add(1)
			writeError(w, http.StatusTooManyRequests,
				fmt.Errorf("ingest backlog: hottest shard buffers %d delta rows (limit %d)", depth, limit))
			return
		}
	}
	cols := s.tbl.Columns()
	known := map[string]bool{}
	for _, name := range cols {
		known[name] = true
	}
	for name := range req.Columns {
		if !known[name] {
			s.counters.errors.Add(1)
			writeError(w, http.StatusBadRequest, fmt.Errorf("unknown column %q", name))
			return
		}
	}
	b := s.tbl.NewBatch()
	rows := -1
	for _, name := range cols {
		vals, ok := req.Columns[name]
		if !ok {
			s.counters.errors.Add(1)
			writeError(w, http.StatusBadRequest, fmt.Errorf("missing column %q", name))
			return
		}
		if rows == -1 {
			rows = len(vals)
		}
		if err := stageColumn(s.tbl, b, name, vals); err != nil {
			s.counters.errors.Add(1)
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	var execErr error
	start := time.Now()
	admitted := s.submit(func() { execErr = b.Commit() })
	if !admitted {
		s.counters.rejected.Add(1)
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("server overloaded: %d executing, %d queued", s.cfg.Workers, s.cfg.QueueDepth))
		return
	}
	if execErr != nil {
		s.counters.errors.Add(1)
		writeError(w, http.StatusInternalServerError, execErr)
		return
	}
	s.counters.inserted.Add(uint64(rows))
	writeJSON(w, http.StatusOK, InsertResponse{
		Rows:      rows,
		TotalRows: s.tbl.Rows(),
		ElapsedUs: time.Since(start).Microseconds(),
	})
}

// stageColumn converts one column's JSON values to the column's type
// and stages them on the batch.
func stageColumn(tbl *table.Table, b *table.Batch, name string, vals []any) error {
	typ, err := tbl.ColumnType(name)
	if err != nil {
		return err
	}
	switch typ {
	case "int8":
		return stageInts[int8](b, name, typ, vals)
	case "int16":
		return stageInts[int16](b, name, typ, vals)
	case "int32":
		return stageInts[int32](b, name, typ, vals)
	case "int64":
		return stageInts[int64](b, name, typ, vals)
	case "uint8":
		return stageUints[uint8](b, name, typ, vals)
	case "uint16":
		return stageUints[uint16](b, name, typ, vals)
	case "uint32":
		return stageUints[uint32](b, name, typ, vals)
	case "uint64":
		return stageUints[uint64](b, name, typ, vals)
	case "float32":
		return stageFloats[float32](b, name, typ, vals)
	case "float64":
		return stageFloats[float64](b, name, typ, vals)
	case "string":
		out := make([]string, len(vals))
		for i, v := range vals {
			sv, ok := v.(string)
			if !ok {
				return fmt.Errorf("column %q row %d: wants string, got %T", name, i, v)
			}
			out[i] = sv
		}
		return b.AppendStrings(name, out)
	}
	return fmt.Errorf("column %q has unsupported type %s", name, typ)
}

func stageInts[V int8 | int16 | int32 | int64](b *table.Batch, name, typ string, vals []any) error {
	out := make([]V, len(vals))
	for i, v := range vals {
		n, err := asInt64(v)
		if err != nil {
			return fmt.Errorf("column %q row %d: wants %s: %w", name, i, typ, err)
		}
		out[i] = V(n)
		if int64(out[i]) != n {
			return fmt.Errorf("column %q row %d: value %d out of range for %s", name, i, n, typ)
		}
	}
	return table.Append(b, name, out)
}

func stageUints[V uint8 | uint16 | uint32 | uint64](b *table.Batch, name, typ string, vals []any) error {
	out := make([]V, len(vals))
	for i, v := range vals {
		// A JSON number is read unsigned first, so a uint64 above
		// MaxInt64 — which /query replies carry — inserts too.
		if n, ok := v.(json.Number); ok {
			if u, err := strconv.ParseUint(n.String(), 10, 64); err == nil {
				out[i] = V(u)
				if uint64(out[i]) != u {
					return fmt.Errorf("column %q row %d: value %d out of range for %s", name, i, u, typ)
				}
				continue
			}
		}
		n, err := asInt64(v)
		if err != nil {
			return fmt.Errorf("column %q row %d: wants %s: %w", name, i, typ, err)
		}
		if n < 0 {
			return fmt.Errorf("column %q row %d: negative value %d for %s", name, i, n, typ)
		}
		out[i] = V(n)
		if uint64(out[i]) != uint64(n) {
			return fmt.Errorf("column %q row %d: value %d out of range for %s", name, i, n, typ)
		}
	}
	return table.Append(b, name, out)
}

func stageFloats[V float32 | float64](b *table.Batch, name, typ string, vals []any) error {
	out := make([]V, len(vals))
	for i, v := range vals {
		f, err := asFloat64(v)
		if err != nil {
			return fmt.Errorf("column %q row %d: wants %s: %w", name, i, typ, err)
		}
		out[i] = V(f)
		// A finite value past float32's range would be stored as ±Inf.
		if x := float64(out[i]); math.IsInf(x, 0) && !math.IsInf(f, 0) {
			return fmt.Errorf("column %q row %d: value %v out of range for %s", name, i, f, typ)
		}
	}
	return table.Append(b, name, out)
}

func asInt64(v any) (int64, error) {
	switch n := v.(type) {
	case json.Number:
		return n.Int64()
	case int64:
		return n, nil
	case int:
		return int64(n), nil
	}
	return 0, fmt.Errorf("got %T", v)
}

func asFloat64(v any) (float64, error) {
	switch n := v.(type) {
	case json.Number:
		return n.Float64()
	case float64:
		return n, nil
	case int64:
		return float64(n), nil
	case int:
		return float64(n), nil
	}
	return 0, fmt.Errorf("got %T", v)
}
