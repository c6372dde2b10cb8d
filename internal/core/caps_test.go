package core

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/oql"
	"disco/internal/source"
	"disco/internal/types"
)

// capsRepos names, per wrapper grammar under test, the repository and the
// extent it serves in capsMediator's catalog.
var capsRepos = []struct{ repo, extent string }{
	{"rsql", "esql"},   // default SQL wrapper: the shared SQL grammar
	{"rops", "eops"},   // SQL wrapper restricted by an ops property
	{"rscan", "escan"}, // scan wrapper: the get-only grammar
	{"rcsv", "ecsv"},   // CSV wrapper
	{"rdoc", "edoc"},   // doc wrapper: the hand-written grammar
	{"rmed", "emed"},   // mediator wrapper: the full Standard grammar
}

// capsMediator declares one extent per wrapper kind. Nothing is ever
// executed: the mediator source's address is never dialed.
func capsMediator(tb testing.TB, dir string) *Mediator {
	tb.Helper()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,2\n"), 0o644); err != nil {
		tb.Fatal(err)
	}
	m := New()
	tb.Cleanup(m.Close)
	for _, name := range []string{"rsql", "rops", "rscan"} {
		s := source.NewRelStore()
		if err := s.CreateTable("t", "a", "b"); err != nil {
			tb.Fatal(err)
		}
		m.RegisterEngine(name, s)
	}
	m.RegisterEngine("rdoc", source.NewDocStore())
	if err := m.ExecODL(`
		rsql := Repository(address="mem:rsql");
		rops := Repository(address="mem:rops");
		rscan := Repository(address="mem:rscan");
		rcsv := Repository(address="file:t");
		rdoc := Repository(address="mem:rdoc");
		rmed := Repository(address="127.0.0.1:1");
		wsql := WrapperPostgres();
		wops := Wrapper("sql", ops="get,select");
		wscan := Wrapper("scan");
		wcsv := Wrapper("csv", path="` + path + `", collection="t");
		wdoc := Wrapper("doc");
		wmed := Wrapper("mediator");
		interface T (extent ts) {
		    attribute Short a;
		    attribute Short b;
		}
		extent esql of T wrapper wsql repository rsql;
		extent eops of T wrapper wops repository rops;
		extent escan of T wrapper wscan repository rscan;
		extent ecsv of T wrapper wcsv repository rcsv;
		extent edoc of T wrapper wdoc repository rdoc;
		extent emed of T wrapper wmed repository rmed;
	`); err != nil {
		tb.Fatal(err)
	}
	return m
}

// FuzzAcceptsMemo holds the memoized capability check to the recognizer:
// each generated source expression is checked against every wrapper
// grammar, and the mediator's verdict must equal g.Accepts(Tokenize(expr))
// on that wrapper's grammar, then again on a second ask that must be a
// memo hit. One mediator serves every input, so verdicts memoized for
// earlier inputs, and for the same terminal string under another grammar,
// are checked too.
func FuzzAcceptsMemo(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 32)
		rng.Read(seed)
		f.Add(seed)
	}
	m := capsMediator(f, f.TempDir())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, target := range capsRepos {
			g := &exprGen{data: data}
			expr := g.expr(target.extent, 3)
			w, err := m.wrapperFor(target.repo, exprRefs(expr))
			if err != nil {
				t.Fatal(err)
			}
			want := w.Grammar().Accepts(capability.Tokenize(expr))
			if got := m.caps.Accepts(target.repo, expr); got != want {
				t.Fatalf("%s at %s: memoized verdict %v, recognizer %v", expr, target.repo, got, want)
			}
			before := m.caps.recognitions.Load()
			if got := m.caps.Accepts(target.repo, expr); got != want {
				t.Fatalf("%s at %s: second verdict %v, recognizer %v", expr, target.repo, got, want)
			}
			if ran := m.caps.recognitions.Load() - before; ran != 0 {
				t.Fatalf("%s at %s: second check ran %d recognitions, want a memo hit", expr, target.repo, ran)
			}
		}
	})
}

// exprGen builds source-side expressions over one extent from fuzz input:
// the operators and predicate forms the grammars name, and some they do
// not (map, aggregates, arithmetic, calls, starred identifiers).
type exprGen struct {
	data []byte
}

func (g *exprGen) pick(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	v := int(g.data[0]) % n
	g.data = g.data[1:]
	return v
}

var exprGenOps = []oql.BinaryOp{
	oql.OpEq, oql.OpNe, oql.OpLt, oql.OpLe, oql.OpGt, oql.OpGe, oql.OpIn,
	oql.OpAnd, oql.OpOr, oql.OpAdd, oql.OpMul,
}

func (g *exprGen) pred(depth int) oql.Expr {
	switch k := g.pick(8); {
	case k >= 6:
		// The well-formed comparison most grammars accept.
		return &oql.Binary{Op: exprGenOps[g.pick(7)], L: &oql.Ident{Name: "a"}, R: &oql.Literal{Val: types.Int(1)}}
	case k == 0:
		return &oql.Ident{Name: "a", Star: g.pick(8) == 0}
	case k == 1:
		return &oql.Literal{Val: types.Int(int64(g.pick(100)))}
	case k == 2 && depth > 0:
		return &oql.Unary{Op: oql.OpNot, X: g.pred(depth - 1)}
	case k == 3 && depth > 0:
		fn := "contains"
		if g.pick(4) == 0 {
			fn = "upper"
		}
		return &oql.Call{Fn: fn, Args: []oql.Expr{g.pred(depth - 1), g.pred(depth - 1)}}
	case depth > 0:
		return &oql.Binary{Op: exprGenOps[g.pick(len(exprGenOps))], L: g.pred(depth - 1), R: g.pred(depth - 1)}
	default:
		return &oql.Ident{Name: "b"}
	}
}

func (g *exprGen) expr(extent string, depth int) algebra.Node {
	if depth == 0 || g.pick(6) == 0 {
		return &algebra.Get{Ref: algebra.ExtentRef{Extent: extent, Source: extent, Attrs: []string{"a", "b"}}}
	}
	in := func() algebra.Node { return g.expr(extent, depth-1) }
	switch g.pick(8) {
	case 0, 1:
		return &algebra.Select{Pred: g.pred(2), Input: in()}
	case 2:
		cols := []algebra.Col{{Name: "a", Expr: &oql.Ident{Name: "a"}}}
		if g.pick(2) == 0 {
			cols = append(cols, algebra.Col{Name: "c", Expr: g.pred(1)})
		}
		return &algebra.Project{Cols: cols, Input: in()}
	case 3:
		j := &algebra.Join{L: in(), R: in()}
		if g.pick(3) > 0 {
			j.Pred = g.pred(2)
		}
		return j
	case 4:
		return &algebra.Union{Inputs: []algebra.Node{in(), in()}}
	case 5:
		return &algebra.Distinct{Input: in()}
	case 6:
		return &algebra.Map{Expr: g.pred(1), Input: in()}
	default:
		return &algebra.Agg{Fn: "count", Input: in()}
	}
}

// TestRecognitionsIndependentOfShardCount counts capability recognitions
// (memo misses) per prepared-cache miss. A pruned point query and a full
// scan each run as many on their first miss at 64 shards as at 4 — every
// shard's submit has the same terminal string and the same grammar — and
// a second miss of the same shape with new literals runs none.
func TestRecognitionsIndependentOfShardCount(t *testing.T) {
	shapes := []struct {
		name, first, again string
		submits            int // in the chosen plan; -1 means one per shard
	}{
		{"point", `select x.name from x in people where x.id = 7 and x.salary < 1000`,
			`select x.name from x in people where x.id = 12345 and x.salary < 2000`, 1},
		{"scan", `select x.name from x in people where x.salary < 100`,
			`select x.name from x in people where x.salary < 200`, -1},
	}
	for _, shape := range shapes {
		first := map[int]int64{}
		for _, shards := range []int{4, 64} {
			m, _ := hashMediator(t, shards, 0)
			miss := func(text string) int64 {
				t.Helper()
				before := m.caps.recognitions.Load()
				plan, tr, err := m.Prepare(text)
				if err != nil {
					t.Fatal(err)
				}
				if tr.CacheHit {
					t.Fatalf("%s: prepared-cache hit, want a miss", text)
				}
				want := shape.submits
				if want < 0 {
					want = shards
				}
				if got := len(algebra.Submits(plan)); got != want {
					t.Fatalf("%s at %d shards: %d submits, want %d: %s", text, shards, got, want, plan)
				}
				return m.caps.recognitions.Load() - before
			}
			first[shards] = miss(shape.first)
			if again := miss(shape.again); again != 0 {
				t.Errorf("%s at %d shards: second miss of the shape ran %d recognitions, want 0", shape.name, shards, again)
			}
		}
		if first[4] == 0 || first[4] != first[64] {
			t.Errorf("%s: first-miss recognitions = %d at 4 shards, %d at 64; want equal and nonzero", shape.name, first[4], first[64])
		}
	}
}
