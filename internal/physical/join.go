package physical

import (
	"context"
	"fmt"
	"io"

	"disco/internal/oql"
	"disco/internal/types"
)

// NLJoin is the nested-loop join: it materializes the right input and scans
// it once per left element. It handles arbitrary predicates (including
// cross products when Pred is nil). The predicate is compiled once and the
// left input streams in batches; output batches fill across left elements,
// with the scan position carried between calls.
type NLJoin struct {
	L, R Operator
	Pred oql.Expr
	rt   *Runtime

	ev      evaluator
	ctx     context.Context
	right   []*types.Struct
	left    *types.Batch
	li      int
	curLeft *types.Struct
	ri      int
}

// Open implements Operator.
func (j *NLJoin) Open(ctx context.Context) error {
	j.ctx = ctx
	if j.Pred != nil {
		if err := j.ev.open(j.rt, j.Pred); err != nil {
			return err
		}
	}
	if err := j.L.Open(ctx); err != nil {
		return err
	}
	right, err := Drain(ctx, j.R)
	if err != nil {
		return err
	}
	j.right = j.right[:0]
	for _, v := range right {
		st, ok := v.(*types.Struct)
		if !ok {
			return fmt.Errorf("physical: join over %s elements", v.Kind())
		}
		j.right = append(j.right, st)
	}
	if j.left == nil {
		j.left = types.NewBatch(0)
	}
	j.left.Reset()
	j.li = 0
	j.curLeft = nil
	j.ri = 0
	return nil
}

// NextBatch implements Operator.
func (j *NLJoin) NextBatch(out *types.Batch) error {
	out.Reset()
	for !out.Full() {
		if j.curLeft == nil {
			if j.li >= j.left.Len() {
				// Per-left-batch cancellation check: the nested loop does
				// O(|L|·|R|) work below this point, and a cancelled caller
				// must not pay for the rest of it.
				if err := cancelErr(j.ctx); err != nil {
					return err
				}
				if err := j.L.NextBatch(j.left); err != nil {
					if err == io.EOF && out.Len() > 0 {
						return nil
					}
					return err
				}
				j.li = 0
			}
			v := j.left.At(j.li)
			j.li++
			st, ok := v.(*types.Struct)
			if !ok {
				return fmt.Errorf("physical: join over %s elements", v.Kind())
			}
			j.curLeft = st
			j.ri = 0
		}
		for j.ri < len(j.right) && !out.Full() {
			rs := j.right[j.ri]
			j.ri++
			merged := types.JoinStructs(j.curLeft, rs)
			if j.Pred != nil {
				cond, err := j.ev.evalStruct(merged)
				if err != nil {
					return err
				}
				keep, err := types.Truthy(cond)
				if err != nil {
					return err
				}
				if !keep {
					continue
				}
			}
			out.Append(merged)
		}
		if j.ri >= len(j.right) {
			j.curLeft = nil
		}
	}
	return nil
}

// Close implements Operator.
func (j *NLJoin) Close() error {
	errL := j.L.Close()
	errR := j.R.Close()
	if errL != nil {
		return errL
	}
	return errR
}

// HashJoin implements equi-joins: it builds a hash table over the right
// input keyed by RKey and probes it with LKey per left element. Residual
// carries any non-equi conjuncts evaluated after the probe. The probe is
// batched: each left batch's keys are computed in one pass (reusing the
// operator's key scratch), then matches stream out with the probe position
// carried between calls.
type HashJoin struct {
	L, R       Operator
	LKey, RKey oql.Expr
	Residual   oql.Expr
	rt         *Runtime

	lkEv, rkEv, resEv evaluator
	ctx               context.Context
	table             map[string][]*types.Struct
	keyer             types.Keyer

	left    *types.Batch
	keys    []string
	li      int
	curLeft *types.Struct
	matches []*types.Struct
	mi      int
}

// Open implements Operator.
func (j *HashJoin) Open(ctx context.Context) error {
	j.ctx = ctx
	if err := j.lkEv.open(j.rt, j.LKey); err != nil {
		return err
	}
	if err := j.rkEv.open(j.rt, j.RKey); err != nil {
		return err
	}
	if j.Residual != nil {
		if err := j.resEv.open(j.rt, j.Residual); err != nil {
			return err
		}
	}
	if err := j.L.Open(ctx); err != nil {
		return err
	}
	right, err := Drain(ctx, j.R)
	if err != nil {
		return err
	}
	j.table = make(map[string][]*types.Struct, len(right))
	for _, v := range right {
		st, ok := v.(*types.Struct)
		if !ok {
			return fmt.Errorf("physical: join over %s elements", v.Kind())
		}
		key, err := j.rkEv.evalStruct(st)
		if err != nil {
			return err
		}
		k := j.keyer.Key(key)
		j.table[k] = append(j.table[k], st)
	}
	if j.left == nil {
		j.left = types.NewBatch(0)
	}
	j.left.Reset()
	j.li = 0
	j.curLeft = nil
	j.matches = nil
	j.mi = 0
	return nil
}

// NextBatch implements Operator.
func (j *HashJoin) NextBatch(out *types.Batch) error {
	out.Reset()
	for !out.Full() {
		if j.mi < len(j.matches) {
			rs := j.matches[j.mi]
			j.mi++
			merged := types.JoinStructs(j.curLeft, rs)
			if j.Residual != nil {
				cond, err := j.resEv.evalStruct(merged)
				if err != nil {
					return err
				}
				keep, err := types.Truthy(cond)
				if err != nil {
					return err
				}
				if !keep {
					continue
				}
			}
			out.Append(merged)
			continue
		}
		if j.li >= j.left.Len() {
			// Per-left-batch cancellation check, mirroring NLJoin's.
			if err := cancelErr(j.ctx); err != nil {
				return err
			}
			if err := j.L.NextBatch(j.left); err != nil {
				if err == io.EOF && out.Len() > 0 {
					return nil
				}
				return err
			}
			j.li = 0
			// Batched probe: key the whole batch in one pass before any
			// matches stream out.
			j.keys = j.keys[:0]
			for _, v := range j.left.Values() {
				st, ok := v.(*types.Struct)
				if !ok {
					return fmt.Errorf("physical: join over %s elements", v.Kind())
				}
				key, err := j.lkEv.evalStruct(st)
				if err != nil {
					return err
				}
				j.keys = append(j.keys, j.keyer.Key(key))
			}
		}
		j.curLeft = j.left.At(j.li).(*types.Struct)
		j.matches = j.table[j.keys[j.li]]
		j.mi = 0
		j.li++
	}
	return nil
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	errL := j.L.Close()
	errR := j.R.Close()
	if errL != nil {
		return errL
	}
	return errR
}

// equiKey deconstructs a join predicate into an equality between a
// left-side and a right-side expression, plus a residual conjunct. It
// returns ok=false when no usable equality exists, in which case the
// implementation rule falls back to a nested loop.
func equiKey(pred oql.Expr, lVars, rVars map[string]bool) (lk, rk, residual oql.Expr, ok bool) {
	conjuncts := splitAnd(pred)
	for i, c := range conjuncts {
		bin, isBin := c.(*oql.Binary)
		if !isBin || bin.Op != oql.OpEq {
			continue
		}
		lSide, rSide := sideOf(bin.L, lVars, rVars), sideOf(bin.R, lVars, rVars)
		var l, r oql.Expr
		switch {
		case lSide == "l" && rSide == "r":
			l, r = bin.L, bin.R
		case lSide == "r" && rSide == "l":
			l, r = bin.R, bin.L
		default:
			continue
		}
		rest := append(append([]oql.Expr{}, conjuncts[:i]...), conjuncts[i+1:]...)
		return l, r, conjoinExprs(rest), true
	}
	return nil, nil, nil, false
}

func splitAnd(e oql.Expr) []oql.Expr {
	if bin, ok := e.(*oql.Binary); ok && bin.Op == oql.OpAnd {
		return append(splitAnd(bin.L), splitAnd(bin.R)...)
	}
	return []oql.Expr{e}
}

func conjoinExprs(conj []oql.Expr) oql.Expr {
	var out oql.Expr
	for _, c := range conj {
		if out == nil {
			out = c
		} else {
			out = &oql.Binary{Op: oql.OpAnd, L: out, R: c}
		}
	}
	return out
}

// sideOf classifies which join side an expression's free names belong to:
// "l", "r", "const" (neither) or "mixed".
func sideOf(e oql.Expr, lVars, rVars map[string]bool) string {
	names := oql.FreeNames(e)
	usesL, usesR := false, false
	for _, n := range names {
		switch {
		case lVars[n]:
			usesL = true
		case rVars[n]:
			usesR = true
		default:
			// A free name outside both sides (extent reference in a
			// correlated predicate): treat as mixed so the rule backs off.
			return "mixed"
		}
	}
	switch {
	case usesL && usesR:
		return "mixed"
	case usesL:
		return "l"
	case usesR:
		return "r"
	default:
		return "const"
	}
}

// compile-time checks
var (
	_ Operator = (*NLJoin)(nil)
	_ Operator = (*HashJoin)(nil)
	_ Operator = (*Exec)(nil)
	_ Operator = (*ConstScan)(nil)
	_ Operator = (*CollScan)(nil)
	_ Operator = (*EvalScan)(nil)
	_ Operator = (*MkBind)(nil)
	_ Operator = (*MkSelect)(nil)
	_ Operator = (*MkProj)(nil)
	_ Operator = (*MkMap)(nil)
	_ Operator = (*MkNest)(nil)
	_ Operator = (*MkDepend)(nil)
	_ Operator = (*MkUnion)(nil)
	_ Operator = (*MkDistinct)(nil)
	_ Operator = (*MkFlatten)(nil)
	_ Operator = (*MkAgg)(nil)
	_ Operator = (*ScatterGather)(nil)
)
