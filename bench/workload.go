package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"disco/internal/types"
)

// The selectivity literals the issue lets the builder retune so that the
// three fan-out workloads each take 40-250 ms serially. The oracle and the
// query texts both read them from here.
const (
	scanSalaryBelow  = 250 // scan_wide: salary < 250, a quarter of people
	aggSalaryAtLeast = 500 // agg_rollup: salary >= 500, half of people
	joinSalaryBelow  = 100 // join_copart: a tenth of people ...
	joinAmountBelow  = 50  // ... and a tenth of their orders

	hotKeys = 128 // point_hot's working set: half the prepared cache
)

// query is one generated input: the text the mediator receives and, for
// the point workloads, the key whose row the oracle expects back.
type query struct {
	text string
	key  int
}

// stream is one client's generator state. Seeded literals come from rng;
// never-repeating literals come from uniq, which starts at a base no other
// stream of the process shares and advances by uniqStride.
type stream struct {
	rng  *rand.Rand
	uniq int64
	o    *oracle
}

const (
	uniqStride = 8 // more than the clients a run may have

	// Bases of the never-repeating literal, one per phase of a run, far
	// enough apart that a phase cannot reach the next.
	uniqWarmup   = 1_000_000_000
	uniqMeasured = 2_000_000_000
	uniqProbe    = 3_000_000_000
	uniqMiss     = 4_000_000_000
)

func newStream(o *oracle, seed int64, client int, uniqBase int64) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed + int64(client))), uniq: uniqBase + int64(client), o: o}
}

func (s *stream) nextUniq() int64 {
	u := s.uniq
	s.uniq += uniqStride
	return u
}

// workload is one traffic mix. Names are fixed: later issues cite them.
type workload struct {
	name string
	why  string
	// text is the query as sent; %d marks a literal drawn per query.
	text string
	// samples is how many queries the layer probe replays.
	samples int
	next    func(s *stream) query
	// check compares an answer with the oracle's. seen is scratch the
	// caller owns, o.seenWords() long; check clears what it uses.
	check func(o *oracle, q query, v types.Value, seen []uint64) error
	// missText returns a text the mediator has not prepared and whose
	// plan the optimizer has not cached; it is prepared, never executed.
	missText func(s *stream) string
}

const (
	pointHotText = "select x.name from x in people where x.id = %d"
	// point_adhoc carries a second, always-true conjunct whose literal never
	// repeats. Without it the stream has only as many distinct texts as
	// people, and the optimizer's plan cache (keyed by plan text, unbounded)
	// turns a growing share of "ad-hoc" queries into plan-cache hits as a
	// run goes on: throughput then drifts upward for as long as the run
	// lasts. salary is below 1000 in every row, and "and" short-circuits,
	// so the source does the same work as for point_hot.
	pointAdhocText = "select x.name from x in people where x.id = %d and x.salary < %d"
)

var (
	scanWideText   = fmt.Sprintf("select struct(id: x.id, name: x.name, salary: x.salary) from x in people where x.salary < %d", scanSalaryBelow)
	aggRollupText  = fmt.Sprintf("sum(select x.salary from x in people where x.salary >= %d)", aggSalaryAtLeast)
	joinCopartText = fmt.Sprintf("select struct(n: p.name, a: o.amount) from p in people, o in orders where p.id = o.pid and p.salary < %d and o.amount < %d", joinSalaryBelow, joinAmountBelow)
)

func adhocQuery(s *stream) query {
	key := s.rng.Intn(len(s.o.names))
	return query{text: fmt.Sprintf(pointAdhocText, key, s.nextUniq()), key: key}
}

func adhocMiss(s *stream) string { return adhocQuery(s).text }

// fixed returns the generator of a workload that sends one text.
func fixed(text string) func(*stream) query {
	q := query{text: text, key: -1}
	return func(*stream) query { return q }
}

// bumped returns a miss generator for a fixed-text workload: the text with
// its last literal raised by a never-repeating amount.
func bumped(text string, literal int) func(*stream) string {
	old := strconv.Itoa(literal)
	at := strings.LastIndex(text, old)
	return func(s *stream) string {
		return text[:at] + strconv.FormatInt(int64(literal)+s.nextUniq(), 10) + text[at+len(old):]
	}
}

var workloads = []*workload{
	{
		name:    "point_hot",
		why:     "128 repeated point queries: prepared-cache hit, pruned to 1 submit, 1 row back; the per-query fixed cost of core, wrapper and one wire round trip",
		text:    pointHotText,
		samples: 200,
		next: func(s *stream) query {
			key := s.o.hot[s.rng.Intn(len(s.o.hot))]
			return query{text: s.o.hotText[key], key: key}
		},
		check:    checkPoint,
		missText: adhocMiss,
	},
	{
		name:     "point_adhoc",
		why:      "never-repeating point queries: same back half as point_hot plus parse, expand, compile, optimize and a prepared-cache insert and evict on every query",
		text:     pointAdhocText,
		samples:  200,
		next:     adhocQuery,
		check:    checkPoint,
		missText: adhocMiss,
	},
	{
		name:     "scan_wide",
		why:      "a quarter of people as three-field rows from all 16 shards: source evaluation, value encode and decode, frame size and the scatter-gather merge do the work",
		text:     scanWideText,
		samples:  20,
		next:     fixed(scanWideText),
		check:    checkScan,
		missText: bumped(scanWideText, scanSalaryBelow),
	},
	{
		name:     "agg_rollup",
		why:      "sum over half of people: scan-sized source and wire volume but one scalar out, so partial-aggregate pushdown would show here and not on scan_wide",
		text:     aggRollupText,
		samples:  20,
		next:     fixed(aggRollupText),
		check:    checkAgg,
		missText: bumped(aggRollupText, aggSalaryAtLeast),
	},
	{
		name:     "join_copart",
		why:      "co-partitioned equi-join of people and orders: the optimizer's choice between per-shard pushed joins and a mediator-side partition-wise hash join",
		text:     joinCopartText,
		samples:  20,
		next:     fixed(joinCopartText),
		check:    checkJoin,
		missText: bumped(joinCopartText, joinAmountBelow),
	},
}

// warmupA is the stream of protocol step (2), not a workload: point queries
// of point_hot's shape over every key but the hot ones. The optimizer costs
// a plan from the history of its submits' shapes, a never-observed shape
// costs nothing, and the first, dial-inflated observations of the pushed
// shape make a bare get look cheaper; a text prepared in that state is
// pinned to shipping its whole shard, by the prepared cache and, for good,
// by the optimizer's own plan cache. So the shape is trained on keys no
// measured text names, until every copy has real observations of both
// shapes, before any hot text is prepared.
var warmupA = &workload{
	name: "warm-up A",
	text: pointHotText,
	next: func(s *stream) query {
		for {
			key := s.rng.Intn(len(s.o.names))
			if _, hot := s.o.hotText[key]; !hot {
				return query{text: fmt.Sprintf(pointHotText, key), key: key}
			}
		}
	},
	check: checkPoint,
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// oracle holds what every answer must be, computed from the row formulas
// in fixture.go and never from the mediator.
type oracle struct {
	names   []string
	hot     []int          // point_hot's keys
	hotText map[int]string // their query texts, built once so the hot loop allocates nothing for them

	scanRows int
	aggSum   int64
	joinRows int
}

func newOracle(cfg fixtureConfig, names []string) *oracle {
	o := &oracle{names: names, hotText: map[int]string{}}
	perShard := make([]int, cfg.shards)
	for id := 0; id < cfg.people; id++ {
		sal := salaryOf(id)
		if sal < scanSalaryBelow {
			o.scanRows++
		}
		if sal >= aggSalaryAtLeast {
			o.aggSum += int64(sal)
		}
		if sal < joinSalaryBelow {
			for k := 0; k < ordersPerPerson; k++ {
				if amountOf(id, k) < joinAmountBelow {
					o.joinRows++
				}
			}
		}
		// The hot keys are the lowest ids of each shard, the same number
		// from every shard, so the set covers the fleet evenly.
		if s := cfg.shardOf(id); perShard[s] < hotKeys/cfg.shards {
			perShard[s]++
			o.hot = append(o.hot, id)
			o.hotText[id] = fmt.Sprintf(pointHotText, id)
		}
	}
	return o
}

// seenWords is the length of the scratch bitmap the checks need: one bit
// per order row, which also covers one bit per person.
func (o *oracle) seenWords() int { return (len(o.names)*ordersPerPerson + 63) / 64 }

// mark sets bit i and reports whether it was already set.
func mark(seen []uint64, i int) bool {
	w, b := i/64, uint64(1)<<(i%64)
	was := seen[w]&b != 0
	seen[w] |= b
	return was
}

func checkPoint(o *oracle, q query, v types.Value, _ []uint64) error {
	b, ok := v.(*types.Bag)
	if !ok || b.Len() != 1 {
		return fmt.Errorf("%s: want a bag of one name, got %s", q.text, v)
	}
	if name, ok := b.At(0).(types.Str); !ok || string(name) != o.names[q.key] {
		return fmt.Errorf("%s: want %q, got %s", q.text, o.names[q.key], b.At(0))
	}
	return nil
}

func intField(st *types.Struct, name string) (int, bool) {
	v, ok := st.Get(name)
	if !ok {
		return 0, false
	}
	i, ok := v.(types.Int)
	return int(i), ok
}

func strField(st *types.Struct, name string) (string, bool) {
	v, ok := st.Get(name)
	if !ok {
		return "", false
	}
	s, ok := v.(types.Str)
	return string(s), ok
}

// checkScan accepts exactly the qualifying rows: the right count, every
// row a qualifying person with its own name and salary, none twice.
func checkScan(o *oracle, q query, v types.Value, seen []uint64) error {
	b, ok := v.(*types.Bag)
	if !ok || b.Len() != o.scanRows {
		return fmt.Errorf("%s: want a bag of %d rows, got %s", q.name(), o.scanRows, describe(v))
	}
	clear(seen)
	for i := 0; i < b.Len(); i++ {
		st, ok := b.At(i).(*types.Struct)
		if !ok || st.Len() != 3 {
			return fmt.Errorf("%s: row %s is not a three-field struct", q.name(), b.At(i))
		}
		id, ok1 := intField(st, "id")
		name, ok2 := strField(st, "name")
		sal, ok3 := intField(st, "salary")
		if !ok1 || !ok2 || !ok3 || id < 0 || id >= len(o.names) ||
			name != o.names[id] || sal != salaryOf(id) || sal >= scanSalaryBelow {
			return fmt.Errorf("%s: row %s is not a qualifying person", q.name(), st)
		}
		if mark(seen, id) {
			return fmt.Errorf("%s: row %s came back twice", q.name(), st)
		}
	}
	return nil
}

func checkAgg(o *oracle, q query, v types.Value, _ []uint64) error {
	if n, ok := types.Numeric(v); !ok || n != float64(o.aggSum) {
		return fmt.Errorf("%s: want %d, got %s", q.name(), o.aggSum, describe(v))
	}
	return nil
}

// checkJoin accepts exactly the qualifying (person, order) pairs. A
// person's orders have distinct amounts, so (id, k) names a pair.
func checkJoin(o *oracle, q query, v types.Value, seen []uint64) error {
	b, ok := v.(*types.Bag)
	if !ok || b.Len() != o.joinRows {
		return fmt.Errorf("%s: want a bag of %d rows, got %s", q.name(), o.joinRows, describe(v))
	}
	clear(seen)
	prefix := len(personName(0)) - 6
	for i := 0; i < b.Len(); i++ {
		st, ok := b.At(i).(*types.Struct)
		if !ok || st.Len() != 2 {
			return fmt.Errorf("%s: row %s is not a two-field struct", q.name(), b.At(i))
		}
		name, ok1 := strField(st, "n")
		amount, ok2 := intField(st, "a")
		if !ok1 || !ok2 || len(name) <= prefix {
			return fmt.Errorf("%s: row %s has the wrong fields", q.name(), st)
		}
		id, err := strconv.Atoi(name[prefix:])
		if err != nil || id < 0 || id >= len(o.names) || name != o.names[id] ||
			salaryOf(id) >= joinSalaryBelow || amount >= joinAmountBelow {
			return fmt.Errorf("%s: row %s does not qualify", q.name(), st)
		}
		k := 0
		for k < ordersPerPerson && amountOf(id, k) != amount {
			k++
		}
		if k == ordersPerPerson {
			return fmt.Errorf("%s: row %s: person %d has no such order", q.name(), st, id)
		}
		if mark(seen, id*ordersPerPerson+k) {
			return fmt.Errorf("%s: row %s came back twice", q.name(), st)
		}
	}
	return nil
}

// name abbreviates a fixed-text query in error messages.
func (q query) name() string {
	if len(q.text) > 48 {
		return q.text[:48] + "..."
	}
	return q.text
}

// describe renders a wrong answer without printing thousands of rows.
func describe(v types.Value) string {
	if n, err := types.NumElements(v); err == nil {
		return fmt.Sprintf("%s of %d", v.Kind(), n)
	}
	return v.String()
}
