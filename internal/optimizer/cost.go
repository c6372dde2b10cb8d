package optimizer

import (
	"time"

	"disco/internal/algebra"
	"disco/internal/costmodel"
)

// Cost is the estimated cost of a plan in abstract units (1 unit = 1ms of
// estimated elapsed time). TransferRows counts rows crossing the wire from
// data sources and TransferValues counts individual attribute values
// (rows × width) — the quantities pushdown exists to reduce.
type Cost struct {
	Total          float64
	SourceTime     float64
	TransferRows   float64
	TransferValues float64
	MediatorCPU    float64
}

// Cost-model constants. The absolute values matter less than their order:
// moving a value over the network dwarfs touching it at the mediator, which
// is what makes pushdown win under the default estimate.
const (
	// perValueNet is the cost of shipping one attribute value from a
	// source. Charging by value rather than by row makes projection
	// pushdown pay off (fewer attributes per row).
	perValueNet = 0.02
	// defaultWidth is the assumed attribute count when a submit's output
	// shape is unknown.
	defaultWidth = 3.0
	// perRowCPU is the cost of one mediator-side operator touching a row.
	perRowCPU = 0.001
	// defaultSelectivity estimates rows surviving a predicate.
	defaultSelectivity = 0.33
	// joinSelectivity estimates the surviving fraction of a join's cross
	// product.
	joinSelectivity = 0.1
	// evalCost is the flat charge for an unplannable eval node.
	evalCost = 1.0
)

// estimate computes the cost of a plan bottom-up. Exec (submit) costs come
// from the learned history: with no observations the paper's default (time
// 0, data 1) applies, under which every source-side operation is free and
// the optimizer pushes as much as wrapper grammars accept.
func (o *Optimizer) estimate(plan algebra.Node) Cost {
	c := &costing{history: o.history}
	c.visit(plan)
	c.cost.Total = c.cost.SourceTime + c.cost.TransferValues*perValueNet + c.cost.MediatorCPU
	return c.cost
}

type costing struct {
	history *costmodel.History
	copies  []costmodel.Estimate // submitEstimate's scratch
	cost    Cost
}

// submitEstimate costs a submit at the cheapest of its copies: routing
// picks the copy at execution time, so the plan is priced by the copy the
// history says answers fastest. Fleet health plays no part — a plan
// depends only on the catalog and the cost history, and a dead shard ends
// in the same residual whichever candidate wins.
func (c *costing) submitEstimate(x *algebra.Submit) costmodel.Estimate {
	if c.history == nil {
		return costmodel.DefaultEstimate()
	}
	c.copies = c.history.EstimateCopies(x.Input, submitCopies(x), c.copies[:0])
	est := c.copies[0]
	for _, e := range c.copies[1:] {
		if e.Time < est.Time {
			est = e
		}
	}
	return est
}

// submitCopies lists the repositories holding every extent the submit
// expression reads — the intersection of its refs' declared replica
// groups, or the submit's own repository when none are declared. The refs
// carry the groups (the catalog stamps them at compile time), so costing
// needs no catalog access.
func submitCopies(x *algebra.Submit) []string {
	var copies []string
	algebra.Walk(x.Input, func(n algebra.Node) {
		g, ok := n.(*algebra.Get)
		if !ok {
			return
		}
		group := g.Ref.Replicas
		if len(group) == 0 {
			group = []string{x.Repo}
		}
		if copies == nil {
			// Copy: the in-place intersection below must not scribble on
			// the ref's shared Replicas slice.
			copies = append([]string(nil), group...)
			return
		}
		keep := copies[:0]
		for _, cand := range copies {
			for _, other := range group {
				if cand == other {
					keep = append(keep, cand)
					break
				}
			}
		}
		copies = keep
	})
	if len(copies) == 0 {
		return []string{x.Repo}
	}
	return copies
}

// visit returns the estimated output cardinality of the node and
// accumulates cost terms.
func (c *costing) visit(n algebra.Node) float64 {
	switch x := n.(type) {
	case *algebra.Submit:
		est := c.submitEstimate(x)
		width := defaultWidth
		if attrs, ok := algebra.OutputAttrs(x.Input); ok {
			width = float64(len(attrs))
		}
		c.cost.SourceTime += float64(est.Time) / float64(time.Millisecond)
		c.cost.TransferRows += est.Rows
		c.cost.TransferValues += est.Rows * width
		return est.Rows
	case *algebra.Get:
		// A bare get only appears inside submit expressions, which are
		// costed as a whole above; reaching here means a malformed plan,
		// count it as one row.
		return 1
	case *algebra.Const:
		return float64(x.Data.Len())
	case *algebra.Union:
		if x.Par {
			// A partition fan-out runs its shards concurrently: the elapsed
			// source time is the slowest shard, not the sum — which is how
			// the optimizer learns that one slow shard gates the whole
			// extent while transfer and CPU costs still accumulate.
			total, slowest := 0.0, 0.0
			for _, in := range x.Inputs {
				before := c.cost.SourceTime
				total += c.visit(in)
				shard := c.cost.SourceTime - before
				c.cost.SourceTime = before
				if shard > slowest {
					slowest = shard
				}
			}
			c.cost.SourceTime += slowest
			return total
		}
		total := 0.0
		for _, in := range x.Inputs {
			total += c.visit(in)
		}
		return total
	case *algebra.Bind:
		rows := c.visit(x.Input)
		c.cost.MediatorCPU += rows * perRowCPU
		return rows
	case *algebra.Select:
		rows := c.visit(x.Input)
		c.cost.MediatorCPU += rows * perRowCPU
		return rows * defaultSelectivity
	case *algebra.Project:
		rows := c.visit(x.Input)
		c.cost.MediatorCPU += rows * perRowCPU * float64(len(x.Cols))
		return rows
	case *algebra.Map:
		rows := c.visit(x.Input)
		c.cost.MediatorCPU += rows * perRowCPU
		return rows
	case *algebra.Join:
		l := c.visit(x.L)
		r := c.visit(x.R)
		// Hash join for equi-predicates (l+r), nested loop otherwise (l*r);
		// approximate with the cheaper form when a predicate exists since
		// the implementation rules prefer hash joins. Emitting the merged
		// output tuples is charged too: it is what makes a partition-wise
		// union of per-shard joins (sum of l_i*r_i) beat one all-shards
		// join ((sum l)*(sum r)) under equal transfer costs.
		if x.Pred != nil {
			out := l * r * joinSelectivity
			c.cost.MediatorCPU += (l + r + out) * perRowCPU
			return out
		}
		c.cost.MediatorCPU += l * r * perRowCPU
		return l * r
	case *algebra.Nest:
		rows := c.visit(x.Input)
		c.cost.MediatorCPU += rows * perRowCPU
		return rows
	case *algebra.Depend:
		rows := c.visit(x.Input)
		expanded := rows * 4 // domain fan-out guess
		c.cost.MediatorCPU += expanded * perRowCPU
		return expanded
	case *algebra.Distinct:
		rows := c.visit(x.Input)
		c.cost.MediatorCPU += rows * perRowCPU
		return rows * 0.7
	case *algebra.Flatten:
		rows := c.visit(x.Input)
		expanded := rows * 4
		c.cost.MediatorCPU += expanded * perRowCPU
		return expanded
	case *algebra.Agg:
		rows := c.visit(x.Input)
		c.cost.MediatorCPU += rows * perRowCPU
		return 1
	case *algebra.Eval:
		c.cost.MediatorCPU += evalCost
		return 1
	default:
		return 1
	}
}
