// Package wrapper implements DISCO's wrapper interface (paper §1.4, §3.2).
// A wrapper declares the logical operators it supports as a grammar (the
// submit-functionality call) and evaluates accepted logical expressions by
// translating them into the data source's own query language — SQL for
// relational sources, the keyword language for document stores, nothing at
// all for scan-only sources — and reformatting the answers.
//
// Wrappers receive expressions already translated into the source
// namespace (extent and attribute names local to the source); the physical
// exec algorithm performs that translation using the catalog's local
// transformation maps before calling Execute.
package wrapper

import (
	"context"
	"fmt"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/source"
	"disco/internal/types"
	"disco/internal/wire"
)

// Wrapper is the interface between mediator and data source.
type Wrapper interface {
	// Grammar describes the logical expressions Execute accepts, in the
	// capability grammar formalism. The optimizer consults it before
	// pushing operations to the source.
	Grammar() *capability.Grammar
	// Execute evaluates a source-namespace logical expression against the
	// data source and returns the resulting bag of tuples (also in the
	// source namespace).
	Execute(ctx context.Context, expr algebra.Node) (*types.Bag, error)
}

// Querier executes queries in a data source's native language. It
// abstracts over in-process engines and remote servers so the same wrapper
// code serves both.
type Querier interface {
	Query(ctx context.Context, text string) (*types.Bag, error)
}

// EngineQuerier adapts an in-process source.Engine.
type EngineQuerier struct {
	Engine source.Engine
}

// Query implements Querier, passing the context through to engines that
// honor one (source.ContextEngine), so in-process sources observe caller
// cancellation just like remote ones.
func (q EngineQuerier) Query(ctx context.Context, text string) (*types.Bag, error) {
	if ce, ok := q.Engine.(source.ContextEngine); ok {
		return ce.QueryContext(ctx, text)
	}
	return q.Engine.Query(text)
}

// RemoteQuerier adapts a wire client speaking a fixed language.
type RemoteQuerier struct {
	Client *wire.Client
	Lang   string
}

// Query implements Querier.
func (q RemoteQuerier) Query(ctx context.Context, text string) (*types.Bag, error) {
	raw, err := q.Client.Query(ctx, q.Lang, text)
	if err != nil {
		return nil, err
	}
	v, err := types.DecodeValue(raw)
	if err != nil {
		return nil, fmt.Errorf("wrapper: decode result: %w", err)
	}
	b, ok := v.(*types.Bag)
	if !ok {
		return nil, fmt.Errorf("wrapper: source returned %s, want bag", v.Kind())
	}
	return b, nil
}

// Scan restricts another wrapper to bare get expressions, modeling the
// weakest wrapper a DBI can write. Everything beyond retrieval stays at
// the mediator.
type Scan struct {
	inner Wrapper
}

// NewScan wraps an existing wrapper with a get-only grammar.
func NewScan(inner Wrapper) *Scan { return &Scan{inner: inner} }

// scanGrammar is the get-only grammar, built once for every Scan wrapper.
var scanGrammar = capability.Standard(capability.ScanOpSet())

// Grammar implements Wrapper. It returns the package's one get-only
// grammar; callers must not modify it.
func (*Scan) Grammar() *capability.Grammar { return scanGrammar }

// Execute implements Wrapper.
func (s *Scan) Execute(ctx context.Context, expr algebra.Node) (*types.Bag, error) {
	if _, ok := expr.(*algebra.Get); !ok {
		return nil, &UnsupportedError{Expr: expr, Wrapper: "scan"}
	}
	return s.inner.Execute(ctx, expr)
}

// UnsupportedError reports an expression outside the wrapper's declared
// functionality. Seeing it means the optimizer skipped the grammar check.
type UnsupportedError struct {
	Expr    algebra.Node
	Wrapper string
}

// Error implements the error interface.
func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("wrapper %s: unsupported expression %s", e.Wrapper, e.Expr)
}

// CheckResult type-checks tuples returned for an extent against the
// mediator interface, implementing the run-time check of §2.1 ("the wrapper
// checks that these types are indeed the same"). It is applied to full-
// object retrievals; projected results carry attribute subsets and are
// checked structurally by the runtime instead.
func CheckResult(schema *types.Schema, iface string, bag *types.Bag) error {
	for _, e := range bag.Elems() {
		if err := schema.CheckConforms(e, iface); err != nil {
			return fmt.Errorf("wrapper: source data does not match mediator type %s: %w", iface, err)
		}
	}
	return nil
}
