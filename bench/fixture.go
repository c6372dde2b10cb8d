package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"disco/internal/algebra"
	"disco/internal/core"
	"disco/internal/source"
	"disco/internal/types"
	"disco/internal/wire"
)

// The fixture is the same for every workload and every seed: the seed
// drives query literals only, so two runs differ in what they ask, never in
// what is stored.
const (
	fullShards = 16    // replica groups; the issue's reference fleet
	fullPeople = 32768 // people rows; orders holds ordersPerPerson each
	copies     = 2     // copies per shard: "at r0|r1, r2|r3, ..."

	ordersPerPerson = 2
)

// fixtureConfig sizes a fleet. The benchmark always runs fullFixture; the
// tests run a miniature of the same shape.
type fixtureConfig struct {
	shards int
	people int
}

var fullFixture = fixtureConfig{shards: fullShards, people: fullPeople}

func personName(id int) string { return fmt.Sprintf("person-%06d", id) }
func salaryOf(id int) int      { return id * 7919 % 1000 }
func amountOf(pid, k int) int  { return (pid + k) % 500 }

// fleet is a mediator over shards x copies RelStore sources, each behind a
// wire server on loopback TCP with no injected latency.
type fleet struct {
	cfg     fixtureConfig
	m       *core.Mediator
	servers []*wire.Server     // index shard*copies + copy, named r<index>
	stores  []*source.RelStore // same index
	o       *oracle
}

func repoName(i int) string { return fmt.Sprintf("r%d", i) }

// shardOf is where the optimizer will look for a key: loaders must place
// rows with the same function the pruner uses.
func (c fixtureConfig) shardOf(id int) int {
	return int(algebra.HashValue(types.Int(int64(id))) % uint64(c.shards))
}

// newFleet builds the stores, loads the rows, starts the servers, declares
// the catalog and sends one tiny query through every repository, so that
// no later query — measured, or whose plan the prepared cache pins — sees a
// dial.
func newFleet(ctx context.Context, cfg fixtureConfig) (*fleet, error) {
	f := &fleet{
		cfg: cfg,
		m: core.New(
			core.WithTimeout(10*time.Second),
			core.WithLoadBalancing(),
			core.WithHedging(0),
			core.WithAdmission(64, 0, 0),
		),
	}
	names := make([]string, cfg.people)
	for id := range names {
		names[id] = personName(id)
	}
	f.o = newOracle(cfg, names)
	if err := f.start(ctx); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleet) start(ctx context.Context) error {
	cfg := f.cfg
	n := cfg.shards * copies
	for i := 0; i < n; i++ {
		s := source.NewRelStore()
		if err := s.CreateTable("people", "id", "name", "salary"); err != nil {
			return err
		}
		if err := s.CreateTable("orders", "pid", "amount"); err != nil {
			return err
		}
		f.stores = append(f.stores, s)
	}
	for id := 0; id < cfg.people; id++ {
		shard := cfg.shardOf(id)
		for c := 0; c < copies; c++ {
			s := f.stores[shard*copies+c]
			if err := s.Insert("people", types.Int(int64(id)), types.Str(f.o.names[id]), types.Int(int64(salaryOf(id)))); err != nil {
				return err
			}
			for k := 0; k < ordersPerPerson; k++ {
				if err := s.Insert("orders", types.Int(int64(id)), types.Int(int64(amountOf(id, k)))); err != nil {
					return err
				}
			}
		}
	}

	var odl strings.Builder
	odl.WriteString(`w0 := WrapperPostgres();
interface Person (extent person) {
    attribute Short id;
    attribute String name;
    attribute Short salary;
}
interface Order (extent order) {
    attribute Short pid;
    attribute Short amount;
}
`)
	groups := make([]string, cfg.shards)
	for i, s := range f.stores {
		srv, err := wire.NewServer("127.0.0.1:0", core.EngineHandler{Engine: s})
		if err != nil {
			return err
		}
		f.servers = append(f.servers, srv)
		fmt.Fprintf(&odl, "%s := Repository(address=%q);\n", repoName(i), srv.Addr())
		if i%copies == 0 {
			groups[i/copies] = repoName(i)
		} else {
			groups[i/copies] += "|" + repoName(i)
		}
	}
	at := strings.Join(groups, ", ")
	fmt.Fprintf(&odl, "extent people of Person wrapper w0 at %s\n    partition by hash(id);\n", at)
	fmt.Fprintf(&odl, "extent orders of Order wrapper w0 at %s\n    partition by hash(pid);\n", at)
	if err := f.m.ExecODL(odl.String()); err != nil {
		return err
	}
	return f.touchEveryCopy(ctx)
}

// touchEveryCopy runs point queries until every copy of every shard has
// answered one: load balancing picks the copy, so a shard is asked again
// until its servers have all counted a query. The keys are each shard's
// highest id, which no workload's hot set names.
func (f *fleet) touchEveryCopy(ctx context.Context) error {
	touched := make([]bool, f.cfg.shards)
	for id, left := f.cfg.people-1, f.cfg.shards; left > 0; id-- {
		if id < 0 {
			return fmt.Errorf("fixture: %d shards hold no row", left)
		}
		shard := f.cfg.shardOf(id)
		if touched[shard] {
			continue
		}
		touched[shard] = true
		left--
		q := fmt.Sprintf(pointHotText, id)
		for tries := 0; ; tries++ {
			cold := false
			for _, srv := range f.servers[shard*copies : (shard+1)*copies] {
				cold = cold || srv.Stats().Queries.Load() == 0
			}
			if !cold {
				break
			}
			if tries > 200*copies {
				return fmt.Errorf("fixture: shard %d: a copy never received a query", shard)
			}
			if _, err := f.m.QueryContext(ctx, q); err != nil {
				return fmt.Errorf("fixture: touch shard %d: %w", shard, err)
			}
		}
	}
	return nil
}

func (f *fleet) close() {
	f.m.Close()
	for _, s := range f.servers {
		s.Close()
	}
}
