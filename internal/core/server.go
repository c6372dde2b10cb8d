package core

import (
	"context"
	"encoding/json"
	"fmt"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/source"
	"disco/internal/types"
	"disco/internal/wire"
)

// Handler adapts a Mediator to the wire protocol so that mediators compose:
// one mediator serves as a data source of another (the M-above-M shape of
// Figure 1). It answers OQL queries and advertises a full-capability
// grammar.
type Handler struct {
	M *Mediator
}

var (
	_ wire.Handler        = Handler{}
	_ wire.PartialHandler = Handler{}
)

// HandleQuery implements wire.Handler. The wire server's request context
// bounds the evaluation: a cancel frame from the querying mediator (or its
// connection dying) stops this mediator's own source calls, so abandonment
// propagates down a mediator-over-mediator tower.
func (h Handler) HandleQuery(ctx context.Context, lang, text string) (json.RawMessage, error) {
	if lang != wire.LangOQL {
		return nil, fmt.Errorf("mediator serves %s, got %q", wire.LangOQL, lang)
	}
	v, err := h.M.QueryContext(ctx, text)
	if err != nil {
		return nil, err
	}
	return types.EncodeValue(v)
}

// HandleQueryPartial implements wire.PartialHandler: when this mediator's
// own sources are unavailable it answers with the residual query, which
// the querying mediator treats as (partial) unavailability of this source
// — partial answers compose across mediator levels because answers are
// queries.
func (h Handler) HandleQueryPartial(ctx context.Context, lang, text string) (json.RawMessage, string, []string, error) {
	if lang != wire.LangOQL {
		return nil, "", nil, fmt.Errorf("mediator serves %s, got %q", wire.LangOQL, lang)
	}
	ans, err := h.M.QueryPartialContext(ctx, text)
	if err != nil {
		return nil, "", nil, err
	}
	if !ans.Complete {
		return nil, ans.Residual.String(), ans.Unavailable, nil
	}
	value, err := types.EncodeValue(ans.Value)
	return value, "", nil, err
}

// fullGrammar is the grammar of a mediator serving as a source: a mediator
// evaluates full OQL, so every operator composes. It is built once.
var fullGrammar = capability.Standard(capability.FullOpSet())

// Capability implements wire.Handler.
func (h Handler) Capability() string { return fullGrammar.String() }

// Collections implements wire.Handler.
func (h Handler) Collections() []string {
	var names []string
	for _, me := range h.M.Catalog().Extents() {
		names = append(names, me.Name)
	}
	return names
}

// Serve starts a wire server exposing the mediator as a data source.
func (m *Mediator) Serve(addr string) (*wire.Server, error) {
	return wire.NewServer(addr, Handler{M: m})
}

// EngineHandler adapts an in-process source.Engine to the wire protocol,
// used by cmd/disco-server and the experiment harness to run data-source
// servers.
type EngineHandler struct {
	Engine source.Engine
	// Grammar is the capability text served to mediators; data-source
	// servers advertise what their wrapper kind supports.
	Grammar string
	// Langs lists accepted query languages (defaults to any).
	Langs []string
}

var _ wire.Handler = EngineHandler{}

// HandleQuery implements wire.Handler. Engines that honor a context
// (source.ContextEngine) get the wire server's request context, so a
// cancelled or expired request stops the engine's scans at the next batch
// boundary instead of evaluating an answer nobody will read.
func (h EngineHandler) HandleQuery(ctx context.Context, lang, text string) (json.RawMessage, error) {
	if len(h.Langs) > 0 {
		ok := false
		for _, l := range h.Langs {
			if l == lang {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("source serves %v, got %q", h.Langs, lang)
		}
	}
	var b *types.Bag
	var err error
	if ce, ok := h.Engine.(source.ContextEngine); ok {
		b, err = ce.QueryContext(ctx, text)
	} else {
		b, err = h.Engine.Query(text)
	}
	if err != nil {
		return nil, err
	}
	return types.EncodeValue(b)
}

// HandleLoad implements wire.LoadHandler when the engine accepts migration
// bulk loads (source.Loader); other engines reject the frame.
func (h EngineHandler) HandleLoad(ctx context.Context, req *wire.LoadRequest) error {
	ld, ok := h.Engine.(source.Loader)
	if !ok {
		return fmt.Errorf("source engine does not accept loads")
	}
	rows, err := wire.DecodeLoadRows(req.Rows)
	if err != nil {
		return err
	}
	lo, err := wire.DecodeLoadBound(req.Clear.Lo)
	if err != nil {
		return err
	}
	hi, err := wire.DecodeLoadBound(req.Clear.Hi)
	if err != nil {
		return err
	}
	clear := source.ClearSpec{All: req.Clear.All, Attr: req.Clear.Attr, Lo: lo, Hi: hi}
	return ld.LoadRows(req.Collection, req.Cols, clear, rows)
}

// Capability implements wire.Handler.
func (h EngineHandler) Capability() string { return h.Grammar }

// Collections implements wire.Handler.
func (h EngineHandler) Collections() []string { return h.Engine.Collections() }

// Versions implements wire.VersionedHandler when the engine tracks
// versions; it returns nil otherwise.
func (h EngineHandler) Versions() map[string]int64 {
	if v, ok := h.Engine.(source.Versioned); ok {
		return v.Versions()
	}
	return nil
}

// mediatorWrapper lets one mediator act as a data source of another: it
// converts the submitted logical expression back to OQL (location
// transparency) and ships the text to the remote mediator.
type mediatorWrapper struct {
	client *wire.Client
}

// Grammar implements wrapper.Wrapper. It returns fullGrammar, built once;
// callers must not modify it.
func (*mediatorWrapper) Grammar() *capability.Grammar { return fullGrammar }

// Execute implements wrapper.Wrapper.
func (w *mediatorWrapper) Execute(ctx context.Context, expr algebra.Node) (*types.Bag, error) {
	q, err := algebra.ToOQL(expr)
	if err != nil {
		return nil, err
	}
	raw, err := w.client.Query(ctx, wire.LangOQL, q.String())
	if err != nil {
		return nil, err
	}
	v, err := types.DecodeValue(raw)
	if err != nil {
		return nil, err
	}
	b, ok := v.(*types.Bag)
	if !ok {
		return nil, fmt.Errorf("remote mediator returned %s, want bag", v.Kind())
	}
	return b, nil
}
