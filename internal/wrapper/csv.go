package wrapper

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/physical"
	"disco/internal/types"
)

// CSV wraps a comma-separated file as a single-collection data source. It
// demonstrates the other way a DBI can build a wrapper (§1.4): instead of
// translating to a server's query language, the wrapper itself implements
// the logical operators — here by loading the file and running the
// mediator's own physical operators over it (physical.RunLocal). Filtering
// and projection therefore execute "at the source" from the mediator's
// point of view.
type CSV struct {
	collection string
	rows       *types.Bag
}

// NewCSV loads the file at path and serves it as the named collection. The
// first record is the header; field values parse as integers, then floats,
// then booleans, falling back to strings.
func NewCSV(collection, path string) (*CSV, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csv wrapper: %w", err)
	}
	defer f.Close()
	return readCSV(collection, f)
}

// NewCSVFromReader is NewCSV over an arbitrary reader (used by tests).
func NewCSVFromReader(collection string, r io.Reader) (*CSV, error) {
	return readCSV(collection, r)
}

func readCSV(collection string, r io.Reader) (*CSV, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csv wrapper: read header: %w", err)
	}
	var rows []types.Value
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csv wrapper: %w", err)
		}
		fields := make([]types.Field, len(header))
		for i, cell := range rec {
			fields[i] = types.Field{Name: header[i], Value: parseCell(cell)}
		}
		rows = append(rows, types.NewStruct(fields...))
	}
	return &CSV{collection: collection, rows: types.NewBag(rows...)}, nil
}

func parseCell(cell string) types.Value {
	if n, err := strconv.ParseInt(cell, 10, 64); err == nil {
		return types.Int(n)
	}
	if f, err := strconv.ParseFloat(cell, 64); err == nil {
		return types.Float(f)
	}
	if b, err := strconv.ParseBool(cell); err == nil {
		return types.Bool(b)
	}
	return types.Str(cell)
}

// csvGrammar is the CSV wrapper's grammar, built once: get, select and
// project with composition, all implemented inside the wrapper.
var csvGrammar = capability.Standard(capability.OpSet{
	Get: true, Project: true, Select: true,
	Compose: true, Connectives: true, Distinct: true,
})

// Grammar implements Wrapper. It returns the package's one CSV grammar;
// callers must not modify it.
func (*CSV) Grammar() *capability.Grammar { return csvGrammar }

// Execute implements Wrapper.
func (w *CSV) Execute(ctx context.Context, expr algebra.Node) (*types.Bag, error) {
	v, err := physical.RunLocal(ctx, expr, algebra.CollectionsMap{w.collection: w.rows})
	if err != nil {
		return nil, fmt.Errorf("csv wrapper: %w", err)
	}
	b, ok := v.(*types.Bag)
	if !ok {
		return nil, fmt.Errorf("csv wrapper: expression produced %s", v.Kind())
	}
	return b, nil
}
